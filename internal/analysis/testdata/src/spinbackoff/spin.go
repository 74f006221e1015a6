// Package spinbackoff is a corpus case for the spin-backoff check:
// for loops retrying an atomic Load or CompareAndSwap must reach a
// backoff point, directly or through a one-level helper.
package spinbackoff

import (
	"runtime"
	"sync/atomic"
)

type lock struct {
	state atomic.Uint64
}

func (l *lock) acquireBad() {
	for { //want:spin-backoff "without a backoff point"
		if l.state.CompareAndSwap(0, 1) {
			return
		}
	}
}

func (l *lock) acquireDirect() {
	for spins := 0; ; spins++ {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		if spins%64 == 0 {
			runtime.Gosched() // direct backoff point
		}
	}
}

func (l *lock) acquireHelper() {
	for spins := 0; ; spins++ {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		yield(spins) // helper whose body directly backs off
	}
}

// yield is a per-package backoff helper, found by the checker's
// one-level expansion.
func yield(spins int) {
	if spins%64 == 0 {
		runtime.Gosched()
	}
}

func (l *lock) acquireJustified() {
	//ffq:ignore spin-backoff corpus fixture: progress is guaranteed by the test harness
	for {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
	}
}

// drain never retries an atomic read: Store/Add are progress, not
// polling, so the loop is not audited.
func (l *lock) drain(n int) {
	for i := 0; i < n; i++ {
		l.state.Store(uint64(i))
	}
}

// waitParked blocks on a channel receive each failed round: a parked
// goroutine cannot starve the peer that will wake it.
func (l *lock) waitParked(wake <-chan struct{}) {
	for !l.state.CompareAndSwap(0, 1) {
		<-wake
	}
}

func (l *lock) waitSelect(wake, done <-chan struct{}) {
	for {
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		select {
		case <-wake:
		case <-done:
			return
		}
	}
}

// waitHelper parks only inside a callee: receives are not expanded
// through helpers, so the loop needs its own backoff or suppression.
func (l *lock) waitHelper(wake <-chan struct{}) {
	for !l.state.CompareAndSwap(0, 1) { //want:spin-backoff "without a backoff point"
		park(wake)
	}
}

func park(wake <-chan struct{}) {
	select {
	case <-wake:
	}
}

// waitBranch blocks only in a rarely taken branch: the other rounds
// spin.
func (l *lock) waitBranch(wake <-chan struct{}, rare bool) {
	for !l.state.CompareAndSwap(0, 1) { //want:spin-backoff "without a backoff point"
		if rare {
			<-wake
		}
	}
}

// waitBranchSelect nests its select in a branch: same verdict.
func (l *lock) waitBranchSelect(wake <-chan struct{}) {
	for { //want:spin-backoff "without a backoff point"
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		if l.state.Load() == 2 {
			select {
			case <-wake:
			}
		}
	}
}

// pollBad only polls its channel: a select with a default clause never
// blocks, so the loop spins.
func (l *lock) pollBad(wake <-chan struct{}) {
	for { //want:spin-backoff "without a backoff point"
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		select {
		case <-wake:
		default:
		}
	}
}
