package chord

import "slices"

// blockCap is the most entries one index block holds. A membership change
// moves at most one block's worth of entries (8 KiB), whatever the ring
// size; the directory over the blocks moves only when a block splits or
// empties.
const blockCap = 512

// entry is one alive node in the index: its id beside its slab handle, so
// that searches compare keys without touching the Node, and a block holds
// no pointer for the collector to scan.
type entry struct {
	id ID
	h  Handle
}

// noEntry is what the searches return on an empty index.
var noEntry = entry{h: noHandle}

// index is the ring's ground truth: the alive nodes ordered by id, held as
// a list of sorted blocks of 1..blockCap entries each, with firsts[b] ==
// blocks[b][0].id as the directory. Search is two binary searches over
// contiguous ids; insert and remove shift within one block. Blocks split
// when full and are dropped when empty, never merged: under the uniform
// ids Chord hashes to, a block's id range only ever narrows until its
// expected load sits well below blockCap.
type index struct {
	blocks [][]entry
	firsts []ID
	size   int
}

// blockFor returns the last block whose first id is <= id — the only
// block that can hold id — or 0 when id precedes every block. It and
// slotIn are written out rather than built on slices.BinarySearchFunc:
// they are the inner loop of every lookup and finger refresh, and the
// generic form measured ~20 % slower on BenchmarkRingChurn.
func (x *index) blockFor(id ID) int {
	lo, hi := 0, len(x.firsts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.firsts[mid] <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// slotIn returns the position of the first entry of blk with id >= target.
func slotIn(blk []entry, target ID) int {
	lo, hi := 0, len(blk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if blk[mid].id < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek returns the position of the first entry with id >= target; b ==
// len(x.blocks) when every id is smaller.
func (x *index) seek(target ID) (b, i int) {
	if len(x.blocks) == 0 {
		return 0, 0
	}
	b = x.blockFor(target)
	i = slotIn(x.blocks[b], target)
	if i == len(x.blocks[b]) {
		return b + 1, 0
	}
	return b, i
}

// ceil returns the first entry with id >= target, wrapping to the
// smallest id; noEntry on an empty index.
func (x *index) ceil(target ID) entry {
	if x.size == 0 {
		return noEntry
	}
	b, i := x.seek(target)
	if b == len(x.blocks) {
		b, i = 0, 0
	}
	return x.blocks[b][i]
}

// after returns the first entry with id > target, wrapping.
func (x *index) after(target ID) entry {
	return x.ceil(target + 1) // ^ID(0)+1 == 0: the wrap falls out of the overflow
}

// before returns the last entry with id < target, wrapping to the largest
// id; noEntry on an empty index.
func (x *index) before(target ID) entry {
	if x.size == 0 {
		return noEntry
	}
	b, i := x.seek(target)
	if i > 0 {
		return x.blocks[b][i-1]
	}
	if b == 0 {
		b = len(x.blocks)
	}
	last := x.blocks[b-1]
	return last[len(last)-1]
}

// has reports whether a node with exactly this id is on the index.
func (x *index) has(id ID) bool { return x.size > 0 && x.ceil(id).id == id }

// appendAfter appends to dst the handles of the k nodes that follow id in
// ring order, wrapping. The caller keeps k <= size.
func (x *index) appendAfter(dst []Handle, id ID, k int) []Handle {
	if k <= 0 {
		return dst
	}
	b, i := x.seek(id + 1)
	for ; k > 0; k-- {
		if b == len(x.blocks) {
			b, i = 0, 0
		}
		dst = append(dst, x.blocks[b][i].h)
		if i++; i == len(x.blocks[b]) {
			b, i = b+1, 0
		}
	}
	return dst
}

// appendBefore appends to dst the handles of the k nodes that precede id
// in ring order, nearest first, wrapping. The caller keeps k <= size.
func (x *index) appendBefore(dst []Handle, id ID, k int) []Handle {
	if k <= 0 {
		return dst
	}
	b, i := x.seek(id)
	for ; k > 0; k-- {
		if i == 0 {
			if b == 0 {
				b = len(x.blocks)
			}
			b--
			i = len(x.blocks[b])
		}
		i--
		dst = append(dst, x.blocks[b][i].h)
	}
	return dst
}

// insert adds h under id. The caller has checked that id is not present.
func (x *index) insert(id ID, h Handle) {
	x.size++
	if len(x.blocks) == 0 {
		x.blocks = append(x.blocks, append(make([]entry, 0, blockCap), entry{id: id, h: h}))
		x.firsts = append(x.firsts, id)
		return
	}
	b := x.blockFor(id)
	blk := x.blocks[b]
	if len(blk) == blockCap {
		// Split: the upper half moves to a fresh block after this one.
		const half = blockCap / 2
		hi := append(make([]entry, 0, blockCap), blk[half:]...)
		blk = blk[:half]
		x.blocks[b] = blk
		x.blocks = slices.Insert(x.blocks, b+1, hi)
		x.firsts = slices.Insert(x.firsts, b+1, hi[0].id)
		if id >= hi[0].id {
			b, blk = b+1, hi
		}
	}
	i := slotIn(blk, id)
	blk = blk[:len(blk)+1]
	copy(blk[i+1:], blk[i:])
	blk[i] = entry{id: id, h: h}
	x.blocks[b] = blk
	if i == 0 {
		x.firsts[b] = id
	}
}

// remove drops the entry for id and reports whether it was present.
func (x *index) remove(id ID) bool {
	if len(x.blocks) == 0 {
		return false
	}
	b := x.blockFor(id)
	blk := x.blocks[b]
	i := slotIn(blk, id)
	if i == len(blk) || blk[i].id != id {
		return false
	}
	x.size--
	copy(blk[i:], blk[i+1:])
	blk = blk[:len(blk)-1]
	if len(blk) == 0 {
		x.blocks = slices.Delete(x.blocks, b, b+1)
		x.firsts = slices.Delete(x.firsts, b, b+1)
	} else {
		x.blocks[b], x.firsts[b] = blk, blk[0].id
	}
	return true
}

// appendAll appends every entry to dst in id order.
func (x *index) appendAll(dst []entry) []entry {
	for _, blk := range x.blocks {
		dst = append(dst, blk...)
	}
	return dst
}

// build replaces the index with the entries of sorted, which must be in
// strictly ascending id order. Blocks start half full, so the first churn
// after a bulk load does not split every block it touches, and all of
// them are cut from one allocation.
func (x *index) build(sorted []entry) {
	const fill = blockCap / 2
	nb := (len(sorted) + fill - 1) / fill
	x.blocks = make([][]entry, 0, nb)
	x.firsts = make([]ID, 0, nb)
	x.size = len(sorted)
	backing := make([]entry, nb*blockCap)
	for len(sorted) > 0 {
		n := min(fill, len(sorted))
		blk := backing[:n:blockCap]
		copy(blk, sorted)
		backing = backing[blockCap:]
		x.blocks = append(x.blocks, blk)
		x.firsts = append(x.firsts, sorted[0].id)
		sorted = sorted[n:]
	}
}
