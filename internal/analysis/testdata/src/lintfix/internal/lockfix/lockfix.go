// Package lockfix is a fixture: positive and negative cases for the
// lockorder whole-module acquisition-graph analyzer.
package lockfix

import (
	"sync"

	"lintfix/internal/lockdep"
)

// A and B each own one mutex class.
type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// Transport mimics the repo's RPC interface.
type Transport interface {
	Dial(addr string) error
}

// AB locks A then B; BA locks B then A. Together they form an
// acquisition cycle, reported at both inner acquisitions.
func AB(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want lockorder
	b.mu.Unlock()
	a.mu.Unlock()
}

func BA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want lockorder
	a.mu.Unlock()
	b.mu.Unlock()
}

// Nested is the negative case: consistent A-then-B ordering elsewhere
// does not create a cycle on its own.
func Nested(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
}

// CrossPkg holds a mutex across a call into another package that
// blocks.
func CrossPkg(a *A, ch chan int) {
	a.mu.Lock()
	lockdep.Wait(ch) // want lockorder
	a.mu.Unlock()
}

// DialLocked dials the transport (a dynamic interface call) while the
// mutex is held.
func DialLocked(t Transport, a *A) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return t.Dial("peer:1") // want lockorder
}

// Released is the negative case: the lock is dropped before blocking.
func Released(a *A, ch chan int) {
	a.mu.Lock()
	a.mu.Unlock()
	lockdep.Wait(ch)
}

// C participates in no cycle; used for control-flow coverage below.
type C struct{ mu sync.Mutex }

// global gives the analyzer a package-level mutex class.
var global sync.Mutex

// GlobalOrder acquires a struct mutex under the package mutex — a
// consistent one-way order, no cycle, no finding.
func GlobalOrder(a *A) {
	global.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	global.Unlock()
}

// Guarded exercises branch merging: the held set after the switch is
// the intersection of its arms, and the early return releases first.
func Guarded(a *A, c *C, mode int) {
	a.mu.Lock()
	switch mode {
	case 0:
		c.mu.Lock()
		c.mu.Unlock()
	default:
	}
	if mode > 1 {
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
}

// LoopLocked exercises loop traversal: each iteration pairs its own
// acquire and release.
func LoopLocked(a *A, n int) {
	for i := 0; i < n; i++ {
		a.mu.Lock()
		a.mu.Unlock()
	}
}

// The functions below each hold a.mu across a cross-package call that
// blocks in a different way.

func RecvLocked(a *A, ch chan int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return lockdep.Recv(ch) // want lockorder
}

func DrainLocked(a *A, ch chan int) {
	a.mu.Lock()
	lockdep.Drain(ch) // want lockorder
	a.mu.Unlock()
}

func SelectLocked(a *A, x, y chan int) {
	a.mu.Lock()
	lockdep.Sel(x, y) // want lockorder
	a.mu.Unlock()
}

func JoinLocked(a *A, wg *sync.WaitGroup) {
	a.mu.Lock()
	lockdep.Join(wg) // want lockorder
	a.mu.Unlock()
}

// IndirectLocked blocks two calls deep: lockdep.Indirect itself only
// calls lockdep.Wait, so the reason arrives via the module fixpoint.
func IndirectLocked(a *A, ch chan int) {
	a.mu.Lock()
	lockdep.Indirect(ch) // want lockorder
	a.mu.Unlock()
}

// R holds a read-write mutex: reader locks order the same way.
type R struct{ mu sync.RWMutex }

func ReadLocked(r *R, ch chan int) {
	r.mu.RLock()
	lockdep.Wait(ch) // want lockorder
	r.mu.RUnlock()
}

// Branchy exercises if/else merge where one arm terminates.
func Branchy(a *A, ok bool) {
	a.mu.Lock()
	if ok {
		a.mu.Unlock()
		return
	} else {
		a.mu.Unlock()
	}
}

// D and E form a cycle whose second half hides inside a helper.
type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }

func lockD(d *D) {
	d.mu.Lock()
	d.mu.Unlock()
}

func DThenE(d *D, e *E) {
	d.mu.Lock()
	e.mu.Lock() // want lockorder
	e.mu.Unlock()
	d.mu.Unlock()
}

func EThenD(e *E, d *D) {
	e.mu.Lock()
	lockD(d) // want lockorder
	e.mu.Unlock()
}

// Fake has a Lock method that is not a sync mutex: no lock is held.
type Fake struct{}

func (Fake) Lock() {}

func FakeLocked(f Fake, ch chan int) {
	f.Lock()
	ch <- 1
}

// LocalLocked blocks under a function-local mutex.
func LocalLocked(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	ch <- 1 // want lockorder
	mu.Unlock()
}

// Shapes carries the lock through every statement form the walker
// follows and blocks once at the end: that select is the only finding,
// so no form above lost the lock or reported a false one.
func Shapes(a *A, c *C, ch chan int, x any, n int, ok bool) {
	a.mu.Lock()
	var v = n + 1
	if w := v * 2; w > n {
		v = w
	} else if w < 0 {
		v = -w
	}
	if ok {
		c.mu.Lock()
	} else {
		c.mu.Lock()
		c.mu.Unlock()
	}
	for i := 0; i < n; i++ {
		v += i
	}
	switch k := v % 3; k {
	case 0:
		v++
	}
	switch x.(type) {
	case int:
		v--
	}
outer:
	for range []int{v} {
		break outer
	}
	go func() { ch <- v }()
	go lockdep.Wait(ch)
	f := func() { <-ch }
	defer lockdep.Wait(ch)
	select { // want lockorder
	case <-ch:
		f()
	default:
	}
	if ok {
		a.mu.Unlock()
		return
	} else {
		a.mu.Unlock()
		panic("unreachable") // lint:allow panic-in-library fixture: a panic-terminated branch
	}
}
