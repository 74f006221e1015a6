// Package analysis is ffq's concurrency-invariant lint suite: a set of
// AST- and type-driven checkers, written purely against the standard
// library's go/parser, go/ast, go/types and go/importer packages, that
// machine-check the conventions the FFQ algorithms depend on but the
// compiler cannot see.
//
// # Checks
//
//   - atomic-discipline: a struct field accessed through sync/atomic
//     must never be read or written plainly elsewhere, and sync/atomic
//     values (atomic.Int64, atomic.Pointer[T], ...) must never be
//     copied by value.
//   - atomic-publish: module-wide release/acquire publication pairing
//     — a field written via package-form atomic.Store*/Add*/Swap*/
//     CompareAndSwap* must never be accessed plainly in any other
//     package of the module, and a field that is atomically stored but
//     never atomically loaded anywhere is an orphan publication.
//     //ffq:plainread reason sanctions init-before-publish accesses.
//   - padding: a struct marked //ffq:padded must have a types.Sizes
//     size that is a multiple of the cache-line constant
//     (core.CacheLineSize), and no two atomic fields of the struct may
//     share a cache-line-sized block.
//   - hotpath-purity: a function marked //ffq:hotpath must not
//     allocate, call fmt/time/sync/os/log/reflect, range over a map,
//     box values into interfaces, spawn goroutines, or defer. Blocks
//     guarded by an instrumentation nil-check (if rec != nil, where
//     rec is a *Recorder) are exempt: they are off the uninstrumented
//     fast path by construction.
//   - hotpath-alloc: allocation-freedom of //ffq:hotpath functions —
//     the heap-allocating constructs hotpath-purity does not already
//     police (map index-assign, addresses of locals escaping via
//     return or heap assignment), plus the full allocation rule set
//     applied one call level deep into //ffq:packhelper helpers
//     (composite literals, closures, make/new, growing append, string
//     concatenation, interface boxing). Cross-validated dynamically by
//     the testing.AllocsPerRun hot-path gate.
//   - spin-backoff: a for loop that retries an atomic Load or
//     CompareAndSwap must reach a backoff point — a call into
//     internal/core/backoff.go, runtime.Gosched, time.Sleep, or a
//     helper that directly performs one of those, or a blocking
//     channel receive in the loop itself.
//   - goroutine-lifecycle: every go statement must be provably joined:
//     a sync.WaitGroup.Add lexically dominating the spawn with a
//     reachable Wait, or a spawned body that calls WaitGroup.Done or
//     signals a done channel (send or close). Goroutines that
//     legitimately outlive their spawner carry //ffq:detached reason.
//   - lap-packing: the packed 64-bit (rank, gap) word is only built and
//     split through functions marked //ffq:packhelper; ad-hoc 32-bit
//     shifts on 64-bit words are flagged anywhere else.
//
// # Markers
//
// Markers are magic comments with no space after //, mirroring
// //go:build:
//
//	//ffq:hotpath            on a function declaration
//	//ffq:padded             on a struct type declaration
//	//ffq:packhelper         on a function declaration
//	//ffq:ignore CHECK reason  suppresses CHECK findings on the
//	                           comment's own line and the next line
//	//ffq:plainread reason   sanctions a plain access to an atomically
//	                         published field (init-before-publish)
//	//ffq:detached reason    sanctions an unjoined go statement
//
// A malformed marker (unknown verb, a directive without a reason) is
// itself reported under the check ID "marker". A line-scoped directive
// that no longer suppresses or sanctions anything is reported under
// the check ID "stale-ignore": suppressions must die with the finding
// they justified.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one reported violation.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// Check is one invariant checker.
type Check interface {
	// ID is the stable check identifier used in reports and
	// //ffq:ignore comments.
	ID() string
	// Doc is a one-line description.
	Doc() string
	// Run reports the violations found in pkg. Implementations must
	// tolerate packages with type errors (missing types.Info entries)
	// and must never panic on malformed input.
	Run(ctx *Context, pkg *Package) []Finding
}

// Context carries module-wide facts shared by all checkers.
type Context struct {
	// CacheLine is the padding granularity, read from the module's
	// internal/core CacheLineSize constant when that package is among
	// the loaded set, 64 otherwise.
	CacheLine int64
	// loader gives cross-package access (function declaration lookup
	// for the spin-backoff one-level expansion). Nil in single-source
	// mode (CheckSource).
	loader *Loader
	// publish caches the module-wide atomic publication facts of the
	// atomic-publish check, computed once per Run.
	publish *publishFacts
	// pkgs is the package set of this Run; with a nil loader it is the
	// only view the cross-package checkers have.
	pkgs []*Package
}

// Checks returns the full suite in reporting order.
func Checks() []Check {
	return []Check{
		&atomicCheck{},
		&publishCheck{},
		&paddingCheck{},
		&hotpathCheck{},
		&allocCheck{},
		&spinCheck{},
		&goroutineCheck{},
		&lapCheck{},
	}
}

// CheckIDs returns the stable identifiers of every check in the suite,
// plus the pseudo-checks "marker" (malformed markers) and
// "stale-ignore" (suppressions that suppress nothing).
func CheckIDs() []string {
	ids := []string{markerCheckID, staleCheckID}
	for _, c := range Checks() {
		ids = append(ids, c.ID())
	}
	sort.Strings(ids)
	return ids
}

// validCheckID reports whether id names a check (for //ffq:ignore
// validation). "all" is accepted and suppresses every check.
func validCheckID(id string) bool {
	if id == "all" || id == markerCheckID || id == staleCheckID {
		return true
	}
	for _, c := range Checks() {
		if c.ID() == id {
			return true
		}
	}
	return false
}

// Run executes the whole suite over the loaded packages, applies
// //ffq:ignore suppressions, folds in malformed-marker findings, and
// returns the surviving findings sorted by position.
func Run(l *Loader, pkgs []*Package) []Finding {
	ctx := &Context{CacheLine: 64, loader: l, pkgs: pkgs}
	if l != nil {
		if cl, ok := l.cacheLineConst(); ok {
			ctx.CacheLine = cl
		}
	}
	var out []Finding
	for _, p := range pkgs {
		var raw []Finding
		raw = append(raw, p.Markers.Bad...)
		for _, c := range Checks() {
			raw = append(raw, c.Run(ctx, p)...)
		}
		for _, f := range raw {
			if p.Markers.suppressed(f) {
				continue
			}
			out = append(out, f)
		}
		out = append(out, staleFindings(p)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// staleFindings runs the stale-suppression audit on a package after
// the checker pass: every line-scoped directive that suppressed or
// sanctioned nothing becomes a stale-ignore finding. The audit is
// two-phase — candidates are first matched against //ffq:ignore
// stale-ignore suppressions, then only directives that are still
// unused are reported — so a suppression consumed by the audit itself
// is not flagged by the same pass.
func staleFindings(p *Package) []Finding {
	stale := p.Markers.staleDirectives()
	if len(stale) == 0 {
		return nil
	}
	type candidate struct {
		d    *lineDirective
		f    Finding
		kept bool
	}
	cands := make([]candidate, 0, len(stale))
	for _, d := range stale {
		f := Finding{Pos: d.pos, Check: staleCheckID, Message: staleMessage(d)}
		cands = append(cands, candidate{d: d, f: f, kept: !p.Markers.suppressed(f)})
	}
	var out []Finding
	for _, c := range cands {
		if c.kept && !c.d.used {
			out = append(out, c.f)
		}
	}
	return out
}
