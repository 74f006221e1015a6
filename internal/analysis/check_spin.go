package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// spinCheck enforces the backoff discipline on spin loops: every
// non-range for loop that retries an atomic Load or CompareAndSwap
// must reach a backoff point, otherwise the lock-free protocols
// degrade to livelock under oversubscription (a spinning goroutine
// can starve the very peer it waits on).
//
// A backoff point is:
//   - a call to a function declared in internal/core/backoff.go (the
//     module's single spin/yield policy),
//   - runtime.Gosched or time.Sleep,
//   - a call to a module function whose own body directly contains
//     one of those (one level of expansion, covering per-package
//     backoff helpers like ccqueue's ccBackoff), or
//   - a blocking channel receive that is itself a statement of the
//     loop body: a receive, or a select without a default clause. The
//     goroutine parks until a peer sends or closes, so it cannot
//     starve that peer. A receive nested in a branch, or inside a
//     callee, does not count: only a wait that the loop body always
//     reaches is accepted without an explicit suppression.
//
// Loops that are retry-shaped but make guaranteed progress each
// iteration (bounded handshakes, pointer-advancing walks) are
// suppressed case by case with //ffq:ignore spin-backoff <reason>.
type spinCheck struct{}

func (spinCheck) ID() string { return "spin-backoff" }
func (spinCheck) Doc() string {
	return "atomic retry loops must reach internal/core/backoff.go or runtime.Gosched"
}

func (c spinCheck) Run(ctx *Context, p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				// Closure bodies are walked when the enclosing
				// Inspect reaches them; loops inside still match.
				return true
			}
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if !c.loopRetriesAtomically(p, loop) {
				return true
			}
			if c.loopReachesBackoff(ctx, p, loop) {
				return true
			}
			out = append(out, Finding{
				Pos:     p.Fset.Position(loop.Pos()),
				Check:   c.ID(),
				Message: "spin loop retries an atomic load/CAS without a backoff point (call core.Backoff or runtime.Gosched, or justify with //ffq:ignore spin-backoff <reason>)",
			})
			return true
		})
	}
	return out
}

// loopRetriesAtomically reports whether the loop's condition or body
// performs an atomic Load or CompareAndSwap (the retry-shaped
// operations; Store and Add are progress, not polling).
func (spinCheck) loopRetriesAtomically(p *Package, loop *ast.ForStmt) bool {
	found := false
	scan := func(n ast.Node) {
		if n == nil {
			return
		}
		walkSkipFuncLit(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isAtomicRetryCall(p.Info, call) {
				found = true
			}
			return true
		})
	}
	scan(loop.Cond)
	scan(loop.Body)
	return found
}

// isAtomicRetryCall matches Load/CompareAndSwap methods of sync/atomic
// types and the corresponding package-level functions.
func isAtomicRetryCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name != "Load" && name != "CompareAndSwap" {
		// package-level forms: LoadInt64, CompareAndSwapUint64, ...
		if obj := info.Uses[sel.Sel]; pkgPathOf(obj) == "sync/atomic" {
			switch {
			case len(name) > 4 && name[:4] == "Load":
				return true
			case len(name) > 14 && name[:14] == "CompareAndSwap":
				return true
			}
		}
		return false
	}
	// Method form: receiver must be a sync/atomic value type.
	if s, ok := info.Selections[sel]; ok {
		recv := s.Recv()
		if ptr, isPtr := recv.(*types.Pointer); isPtr {
			recv = ptr.Elem()
		}
		return isAtomicValueType(recv)
	}
	return false
}

// loopReachesBackoff reports whether any call in the loop body (or
// condition) is a backoff point, directly or via a one-level helper.
func (c spinCheck) loopReachesBackoff(ctx *Context, p *Package, loop *ast.ForStmt) bool {
	found := false
	scan := func(n ast.Node) {
		if n == nil {
			return
		}
		walkSkipFuncLit(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(p.Info, call)
			if callee == nil {
				return true
			}
			if isBackoffObject(p, callee) {
				found = true
				return true
			}
			// One-level expansion through module helpers.
			if fd := ctx.declOf(callee); fd != nil && fd.Body != nil {
				if bodyHasDirectBackoff(ctx, p, fd) {
					found = true
				}
			}
			return true
		})
	}
	scan(loop.Cond)
	scan(loop.Body)
	scan(loop.Post)
	return found || blocksOnReceive(loop.Body)
}

// isBackoffObject reports whether obj is a designated backoff point:
// declared in internal/core/backoff.go, or runtime.Gosched/time.Sleep.
func isBackoffObject(p *Package, obj types.Object) bool {
	switch pkgPathOf(obj) {
	case "runtime":
		return obj.Name() == "Gosched"
	case "time":
		return obj.Name() == "Sleep"
	}
	if !obj.Pos().IsValid() {
		return false
	}
	pos := p.Fset.Position(obj.Pos())
	return filepath.Base(pos.Filename) == "backoff.go" &&
		filepath.Base(filepath.Dir(pos.Filename)) == "core"
}

// declOf resolves a function object to its declaration across loaded
// packages (nil in single-source mode).
func (ctx *Context) declOf(obj types.Object) *ast.FuncDecl {
	if ctx == nil || ctx.loader == nil {
		return nil
	}
	return ctx.loader.declOf(obj)
}

// bodyHasDirectBackoff reports whether fd's body directly calls a
// designated backoff point. One level only: deeper indirection should
// route through core.Backoff instead.
func bodyHasDirectBackoff(ctx *Context, p *Package, fd *ast.FuncDecl) bool {
	// The callee may live in another package; resolve calls with that
	// package's own type info when available.
	target := p
	if ctx.loader != nil {
		pos := p.Fset.Position(fd.Pos())
		for _, cand := range ctx.loader.pkgs {
			if cand.Dir != "" && filepath.Dir(pos.Filename) == cand.Dir {
				target = cand
				break
			}
		}
	}
	found := false
	walkSkipFuncLit(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeOf(target.Info, call); callee != nil && isBackoffObject(target, callee) {
			found = true
		}
		return true
	})
	return found
}

// blocksOnReceive reports whether a statement of body itself, not
// one nested in a branch or a callee, blocks on a channel receive: a
// receive expression statement or assignment, or a select without a
// default clause (one with a default never blocks). A receive that only
// a conditional branch reaches does not bound the loop's other rounds.
func blocksOnReceive(body *ast.BlockStmt) bool {
	isRecv := func(e ast.Expr) bool {
		u, ok := ast.Unparen(e).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	for _, st := range body.List {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if isRecv(st.X) {
				return true
			}
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && isRecv(st.Rhs[0]) {
				return true
			}
		case *ast.SelectStmt:
			blocking := true
			for _, cl := range st.Body.List {
				if cl.(*ast.CommClause).Comm == nil {
					blocking = false
				}
			}
			if blocking {
				return true
			}
		}
	}
	return false
}
