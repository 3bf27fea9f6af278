package wire

import "sync"

// Buffer pooling: the encode→send→receive→decode path borrows byte
// slices here instead of allocating. Pools are length-classed slabs —
// a handful of sync.Pools keyed by capacity class — so a 200-byte
// probe reply does not pin a megabyte slab and a fragmented select
// request does not thrash the small class. Returning a buffer to the
// wrong class is impossible: the class index rides inside Buf.
//
// Class sizes follow the traffic shape: most RPCs fit one MTU (512 B /
// 4 KiB), discovery fan-in replies fit 64 KiB, and the 1 MiB class
// covers reassembled multi-fragment messages up to the historical
// bufio reader bound in protocol.go.
var bufClasses = [...]int{512, 4 << 10, 64 << 10, 1 << 20}

// Buf is a pooled byte buffer. Use B (typically `buf.B = buf.B[:0]`
// then append) and return it with PutBuf when done; after PutBuf the
// slice must not be touched.
type Buf struct {
	B     []byte
	class int8
}

var bufPools = func() [len(bufClasses)]*sync.Pool {
	var ps [len(bufClasses)]*sync.Pool
	for i := range ps {
		size, class := bufClasses[i], int8(i)
		ps[i] = &sync.Pool{New: func() any {
			return &Buf{B: make([]byte, 0, size), class: class}
		}}
	}
	return ps
}()

// GetBuf returns a pooled buffer whose capacity is at least n (n may
// be 0 for "smallest class"). Requests beyond the largest class get a
// plain unpooled allocation; PutBuf quietly drops those.
func GetBuf(n int) *Buf {
	for i := range bufClasses {
		if n <= bufClasses[i] {
			b := bufPools[i].Get().(*Buf)
			b.B = b.B[:0]
			return b
		}
	}
	return &Buf{B: make([]byte, 0, n), class: -1}
}

// PutBuf returns a buffer to a class pool. The invariant is that pool
// i only holds buffers with capacity ≥ bufClasses[i], so a buffer is
// filed under the largest class its capacity covers: one that grew
// past its birth class migrates upward (a working set that settles at
// a larger message shape stops re-allocating), and an off-pool
// oversize buffer joins the largest class.
func PutBuf(b *Buf) {
	if b == nil {
		return
	}
	c := cap(b.B)
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if c >= bufClasses[i] {
			b.class = int8(i)
			b.B = b.B[:0]
			bufPools[i].Put(b)
			return
		}
	}
}
