package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dyndesign/internal/obs"
)

// countModel prices any configuration, however wide its span: EXEC is
// the structure count, TRANS the structures that differ.
type countModel struct{}

func (countModel) Exec(_ int, c Config) float64      { return float64(c.Count()) }
func (countModel) Trans(from, to Config) float64     { return float64((from ^ to).Count()) }
func (countModel) Size(c Config) float64             { return float64(c.Count()) }
func (countModel) TransParts() (add, drop []float64) { return nil, nil }

// TestListIndexRejectsBadLists holds Validate and CheckSolution to the
// list checks on both index shapes — the lattice table of a span within
// maxLatticeBits and the map of a wider one — with and without a solve
// cache: positions are found, a duplicate, a Final off the list and a
// design off the usable list are rejected.
func TestListIndexRejectsBadLists(t *testing.T) {
	narrow := []Config{0b100000, 0, 0b11, 0b101001, 0b1}
	wide := []Config{0}
	for s := 0; s < maxLatticeBits+2; s++ {
		wide = append(wide, Config(1)<<s|Config(1)<<40)
	}
	for _, list := range []struct {
		name    string
		configs []Config
		tabled  bool
	}{{"narrow", narrow, true}, {"wide", wide, false}} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", list.name, cached), func(t *testing.T) {
				p := &Problem{Stages: 3, Configs: list.configs, Model: countModel{}, K: 1}
				if cached {
					p.Cache = NewSolveCache()
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("valid list rejected: %v", err)
				}
				x, err := p.Cache.index(list.configs)
				if err != nil {
					t.Fatal(err)
				}
				if got := x.candAt != nil; got != list.tabled {
					t.Fatalf("lattice table %v, want %v", got, list.tabled)
				}
				for j, c := range list.configs {
					if got, ok := x.lookup(c); !ok || int(got) != j {
						t.Fatalf("lookup(%b) = %d, %v; want %d", c, got, ok, j)
					}
				}
				for _, c := range []Config{0b10, 0b111, Config(1) << 63} {
					if _, ok := x.lookup(c); ok {
						t.Fatalf("lookup(%b) found a configuration off the list", c)
					}
				}

				sol := p.NewSolution([]Config{list.configs[1], list.configs[2], list.configs[2]})
				if err := p.CheckSolution(sol); err != nil {
					t.Fatalf("feasible solution rejected: %v", err)
				}
				off := p.NewSolution([]Config{list.configs[1], 0b10, list.configs[2]})
				if err := p.CheckSolution(off); err == nil {
					t.Fatal("a design off the list was accepted")
				}

				f := Config(0b10)
				bad := *p
				bad.Final = &f
				if err := bad.Validate(); err == nil {
					t.Fatal("a final configuration off the list was accepted")
				}
				bad = *p
				bad.Configs = append(slices.Clone(list.configs), list.configs[3])
				if err := bad.Validate(); err == nil {
					t.Fatal("a duplicate configuration was accepted")
				}
				if err := bad.CheckSolution(sol); err == nil {
					t.Fatal("CheckSolution accepted a list with a duplicate")
				}
			})
		}
	}
}

// TestSolveCacheIndexesEachList solves on one cache a list, the same
// list in another slice, a permutation of it and then the list under
// changed transition prices: each answer equals a fresh cache's, an
// equal list reads the index the cache kept, and a permuted one gets
// its own.
func TestSolveCacheIndexesEachList(t *testing.T) {
	c := exactCase{stages: 30, structs: 7, shape: costsSmallInt, k: 2, withFinal: true}
	p := c.problem(5, 1)
	p.Cache, p.Metrics = primed(), &Metrics{}
	rng := rand.New(rand.NewSource(5))
	perm := slices.Clone(p.Configs)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	priced := *p.Model.(*additiveModel)
	priced.add = slices.Clone(priced.add)
	priced.add[3] += 2

	first, err := p.Cache.index(p.Configs)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name    string
		configs []Config
		model   CostModel
	}{
		{"list", p.Configs, p.Model},
		{"equal list", slices.Clone(p.Configs), p.Model},
		{"permutation", perm, p.Model},
		{"changed prices", perm, &priced},
	} {
		q := *p
		q.Configs, q.Model = step.configs, step.model
		got, _, errG := solveExact(bg, &q)
		want, _, errW := solveExact(bg, fresh(&q))
		sameSolution(t, step.name+", exact path", want, got, errW, errG)
		gotU, errG := SolveUnconstrained(bg, &q)
		wantU, errW := SolveUnconstrained(bg, fresh(&q))
		sameSolution(t, step.name+", unconstrained", wantU, gotU, errW, errG)
		if err := q.CheckSolution(got); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		x, err := q.Cache.index(step.configs)
		if err != nil {
			t.Fatal(err)
		}
		if same := x == first; same != slices.Equal(step.configs, p.Configs) {
			t.Fatalf("%s: index shared with the first list's: %v", step.name, same)
		}
	}
}

// TestAlignedSlideWorkerChoice pins which workers run a slide's seed
// pass. A slide that converges within soloStages runs on one worker;
// one that converges later, or never, goes on to the split crew when
// the runtime has two processors. Every answer equals a fresh cache's
// and the seqgraph.dp span names the workers that ran.
func TestAlignedSlideWorkerChoice(t *testing.T) {
	const stages, structs = 40, splitMinBits
	crew := int64(crewSize(2, 2))
	for _, c := range []struct {
		name string
		// reset, when positive, is the slid window's stage whose EXEC row
		// leaves one configuration finite: every row after it is the
		// same in both windows, whatever came before. Transitions are
		// priced high, so nothing else brings the windows together.
		reset int
		solo  bool // the pass ends within soloStages
	}{
		{"converges within the solo stages", 2, true},
		{"converges after the solo stages", 3 * costEvery, false},
		{"never converges", 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			m, configs := randomAdditiveModel(rng, stages+1, structs)
			for _, row := range m.exec {
				for j := range row {
					row[j] = float64(rng.Intn(4))
				}
			}
			if c.reset > 0 {
				row := m.exec[c.reset+1]
				for j := range row {
					row[j] = math.Inf(1)
				}
				row[0] = 0
			}
			for s := range m.add {
				m.add[s], m.drop[s] = 1e3, 1e3
			}
			base := &Problem{Stages: stages, Configs: configs, K: Unconstrained, Parallelism: 2,
				kernel: kernelHypercube, Cache: primed(), Metrics: &Metrics{},
				Model: &additiveModel{exec: m.exec[:stages], add: m.add, drop: m.drop}}
			if _, err := SolveUnconstrained(bg, base); err != nil {
				t.Fatal(err)
			}
			sink := &spanAttrSink{name: SpanSeqgraphDP}
			slid := *base
			slid.Model = &additiveModel{exec: m.exec[1:], add: m.add, drop: m.drop}
			slid.Metrics, slid.Tracer = &Metrics{}, obs.NewTracer(sink)
			got, err := SolveUnconstrained(bg, &slid)
			workers, _ := sink.attrs["workers"].(int64)
			recomputed, _ := sink.attrs["recomputed"].(int64)
			reused, _ := sink.attrs["reused"].(int64)
			want, errW := SolveUnconstrained(bg, fresh(&slid))
			sameSolution(t, c.name, want, got, errW, err)
			wantWorkers := crew
			if c.solo {
				wantWorkers = 1
			}
			if workers != wantWorkers || (reused > 0) != (c.reset > 0) {
				t.Fatalf("seqgraph.dp workers %d, reused %d; want workers %d, reuse %v (GOMAXPROCS %d)",
					workers, reused, wantWorkers, c.reset > 0, runtime.GOMAXPROCS(0))
			}
			if solo := recomputed <= soloStages; solo != c.solo {
				t.Fatalf("%d stages recomputed: the case does not test what it is named for", recomputed)
			}
		})
	}
}
