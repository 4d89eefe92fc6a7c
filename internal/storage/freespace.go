package storage

import "math"

// freeSpace indexes the room of every page of a heap file (Page.room) so
// that an insert finds the lowest-id page that fits its payload in
// O(log pages) instead of visiting every page: a max segment tree whose
// leaves are the pages in id order. Placement stays first fit.
type freeSpace struct {
	// leaves is the leaf capacity, a power of two; tree[leaves+i] is page
	// i's room and tree[j] the larger of tree[2j] and tree[2j+1]. Leaves
	// without a page hold math.MinInt, so no payload ever fits them.
	leaves int
	tree   []int
}

// set records page i's room, growing the index to cover page i.
func (f *freeSpace) set(i, room int) {
	if i >= f.leaves {
		f.grow(i + 1)
	}
	j := f.leaves + i
	f.tree[j] = room
	for j > 1 {
		j /= 2
		f.tree[j] = max(f.tree[2*j], f.tree[2*j+1])
	}
}

// grow doubles the leaf capacity until it covers n pages.
func (f *freeSpace) grow(n int) {
	leaves := max(f.leaves, 1)
	for leaves < n {
		leaves *= 2
	}
	tree := make([]int, 2*leaves)
	for i := range tree {
		tree[i] = math.MinInt
	}
	copy(tree[leaves:], f.tree[f.leaves:])
	for j := leaves - 1; j >= 1; j-- {
		tree[j] = max(tree[2*j], tree[2*j+1])
	}
	f.leaves, f.tree = leaves, tree
}

// first returns the lowest page id whose room is at least size, or -1.
func (f *freeSpace) first(size int) int {
	if f.leaves == 0 || f.tree[1] < size {
		return -1
	}
	j := 1
	for j < f.leaves {
		j *= 2
		if f.tree[j] < size {
			j++
		}
	}
	return j - f.leaves
}

// room returns the room recorded for page i.
func (f *freeSpace) room(i int) int { return f.tree[f.leaves+i] }
