// Package mutexfix is a fixture for lockorder's in-package cases: a
// channel operation under a lock, and a call under a lock to a helper of
// the same package that blocks.
package mutexfix

import "sync"

// Node guards a channel with a mutex, tempting callers to block while
// holding it.
type Node struct {
	mu sync.Mutex
	ch chan int
}

// Bad sends on a channel with the lock held.
func (n *Node) Bad() {
	n.mu.Lock()
	n.ch <- 1 // want lockorder
	n.mu.Unlock()
}

// BadRecv receives with the lock held.
func (n *Node) BadRecv() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.ch // want lockorder
}

// BadViaHelper blocks indirectly: send is a package-local function that
// performs a channel send, so calling it under the lock is flagged too.
func (n *Node) BadViaHelper() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.send() // want lockorder
}

func (n *Node) send() {
	n.ch <- 2
}

// Good releases the lock before blocking.
func (n *Node) Good() {
	n.mu.Lock()
	n.mu.Unlock()
	n.ch <- 3
}

// GoodViaHelper releases the lock before calling the blocking helper.
func (n *Node) GoodViaHelper() {
	n.mu.Lock()
	n.mu.Unlock()
	n.send()
}

// GoodDefer holds the lock across straight-line code only.
func (n *Node) GoodDefer() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return 1
}
