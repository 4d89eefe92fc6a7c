package core

import (
	"fmt"
	"slices"
)

// listIndex places the configurations of one candidate list: which
// position of the list holds a configuration, and where each sits in the
// lattice of the list's span. It is the one membership check of the
// package — Validate's duplicate and Final checks, CheckSolution's, the
// table replays' (execTerm, transTerm) — and the hypercube kernel's
// binding (latIdx, candAt). A SolveCache keeps the indexes of the last
// few lists (SolveCache.index), so a solve over the list the previous
// one used checks and binds it without a pass that builds per-list maps
// or tables. Immutable once built.
//
// A list whose span fits maxLatticeBits is indexed by lattice point: a
// table of 2^bits positions, as wide as the hypercube kernel's own
// lattice. A wider span cannot be tabled, and is indexed by a map.
type listIndex struct {
	configs []Config // a copy of the list, which callers may not keep immutable
	span    Config
	// latIdx[j] is configs[j]'s lattice point and candAt[x] the position
	// of the configuration at lattice point x, -1 off the list. Both nil
	// when the span exceeds maxLatticeBits.
	latIdx, candAt []int32
	// byConfig is the position of each configuration, for spans over
	// maxLatticeBits only.
	byConfig map[Config]int32
}

// newListIndex indexes a candidate list, failing on a duplicate.
func newListIndex(configs []Config) (*listIndex, error) {
	x := &listIndex{configs: slices.Clone(configs), span: spanOf(configs)}
	bits := x.span.Count()
	if bits > maxLatticeBits {
		x.byConfig = make(map[Config]int32, len(configs))
		for j, c := range configs {
			if _, dup := x.byConfig[c]; dup {
				return nil, duplicateConfig(c)
			}
			x.byConfig[c] = int32(j)
		}
		return x, nil
	}
	x.latIdx = make([]int32, len(configs))
	x.candAt = make([]int32, 1<<uint(bits))
	for i := range x.candAt {
		x.candAt[i] = -1
	}
	for j, c := range configs {
		li := x.point(c)
		if x.candAt[li] >= 0 {
			return nil, duplicateConfig(c)
		}
		x.latIdx[j], x.candAt[li] = li, int32(j)
	}
	return x, nil
}

func duplicateConfig(c Config) error {
	return fmt.Errorf("core: duplicate configuration %d in candidate list", c)
}

// point is the lattice point of a configuration within the span: c
// itself when the span is the low bits, compress otherwise.
func (x *listIndex) point(c Config) int32 {
	if x.span&(x.span+1) == 0 {
		return int32(c)
	}
	return int32(compress(c, x.span))
}

// compress maps a configuration to its lattice point: bit b of the
// result is the b-th lowest set bit of span. Candidates are distinct,
// so the mapping is injective over the candidate list.
func compress(c, span Config) int {
	out, b := 0, 0
	for s := span; s != 0; s &= s - 1 {
		if c&(s&-s) != 0 {
			out |= 1 << uint(b)
		}
		b++
	}
	return out
}

// lookup returns the position of c in the list, ok false when c is not
// on it.
func (x *listIndex) lookup(c Config) (int32, bool) {
	if x.byConfig != nil {
		j, ok := x.byConfig[c]
		return j, ok
	}
	if c&^x.span != 0 {
		return -1, false
	}
	j := x.candAt[x.point(c)]
	return j, j >= 0
}

// index returns the index of a candidate list: the cache's, when it
// indexed an equal list before, and a new one otherwise, which the cache
// keeps among the last maxCacheEntries lists (a problem's list and its
// space-bound filtered one, the lists of a partitioned solve's
// components). A nil cache indexes the list afresh. A list with a duplicate
// fails, and no index is kept for it.
func (c *SolveCache) index(configs []Config) (*listIndex, error) {
	if c == nil {
		return newListIndex(configs)
	}
	c.listMu.Lock()
	for i, x := range c.lists {
		if slices.Equal(x.configs, configs) {
			toFront(c.lists, i)
			c.listMu.Unlock()
			return x, nil
		}
	}
	c.listMu.Unlock()
	x, err := newListIndex(configs)
	if err != nil {
		return nil, err
	}
	c.listMu.Lock()
	defer c.listMu.Unlock()
	c.lists = append([]*listIndex{x}, c.lists...)
	if len(c.lists) > maxCacheEntries {
		c.lists = c.lists[:maxCacheEntries]
	}
	return x, nil
}
