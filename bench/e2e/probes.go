package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dyndesign/internal/btree"
	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/cost"
	"dyndesign/internal/index"
	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
	"dyndesign/internal/workload"
)

// timed runs fn inside a span and returns its duration.
func timed(rec *recorder, name string, fn func() error) (time.Duration, error) {
	rec.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	rec.end()
	return d, err
}

// probeEnv reports the machine context: what an fsync and a fixed
// arithmetic loop cost here and now. Never gated; read the other numbers
// against these when the sandbox's device or clock drifts.
func probeEnv(e *env, r *result) error {
	sz := e.cfg.size
	dir, err := e.freshDir("fsync")
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		return err
	}
	block := make([]byte, 4096)
	t0 := time.Now()
	for i := 0; i < sz.probeFsyncs; i++ {
		if _, err := f.Write(block); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	fsyncUS := float64(time.Since(t0)) / 1e3 / float64(sz.probeFsyncs)
	if err := f.Close(); err != nil {
		return err
	}
	r.set("env.fsync_probe_us", fsyncUS, sz.probeFsyncs)

	t0 = time.Now()
	x := uint64(1)
	for i := 0; i < sz.probeSpin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spin := float64(time.Since(t0)) / float64(sz.probeSpin)
	if x == 0 { // keeps the loop observable
		spin++
	}
	r.set("env.spin_ns", spin, sz.probeSpin)
	r.set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 0)
	return nil
}

// probeCost times the cost model's public entry points outside any
// solve: what-if validation of DML, plan-table compilation and
// plan-table lookup over the full lattice.
func probeCost(e *env, r *result, rec *recorder, stmts []stmt) error {
	sz := e.cfg.size
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0xd31))
	domain := workload.DomainForRows(e.cfg.rows)
	ins, err := workload.GenerateInserts(workload.PaperTable, 4, domain, rng, sz.probeDML/2)
	if err != nil {
		return err
	}
	upd, err := workload.GenerateUpdates(workload.PaperTable, "b", "a", domain, rng, sz.probeDML/2)
	if err != nil {
		return err
	}
	dml := append(ins, upd...)
	r.op(1)
	d, err := timed(rec, "cost.validate_dml", func() error {
		for _, s := range dml {
			if _, err := e.adv.StatementCost(s, core.Config(0)); err != nil {
				return err
			}
		}
		return nil
	})
	if !r.must(err, "StatementCost over DML") {
		return nil
	}
	r.set("cost.validate_dml_ns_per_stmt", float64(d)/float64(len(dml)), len(dml))

	tp, err := e.db.TablePhys(workload.PaperTable)
	if err != nil {
		return err
	}
	var phys []cost.IndexPhys
	for _, def := range latticeStructures() {
		ip, err := cost.HypotheticalIndex(def, tp)
		if err != nil {
			return err
		}
		phys = append(phys, ip)
	}
	n := min(sz.probePlans, len(stmts))
	plans := make([]*cost.PlanTable, 0, n)
	r.op(1)
	d, err = timed(rec, "cost.plan_compile", func() error {
		for _, s := range stmts[:n] {
			pt, err := cost.CompilePlan(s.S.Stmt, tp, phys)
			if err != nil {
				return err
			}
			plans = append(plans, pt)
		}
		return nil
	})
	if !r.must(err, "CompilePlan") {
		return nil
	}
	r.set("cost.plan_compile_ns_per_stmt", float64(d)/float64(n), n)

	cells := 0
	sum := 0.0
	d, _ = timed(rec, "cost.plan_lookup", func() error {
		for _, pt := range plans {
			for c := uint64(0); c < 1<<uint(len(phys)); c++ {
				sum += pt.Cost(c)
				cells++
			}
		}
		return nil
	})
	r.check(sum > 0, "plan tables price every configuration at zero")
	r.set("cost.plan_lookup_ns_per_cell", float64(d)/float64(cells), cells)
	return nil
}

// probeSubstrate times the storage, index and B+-tree layers on a heap
// of its own, so the numbers do not depend on what the workload did to
// the shared table.
func probeSubstrate(e *env, r *result, rec *recorder) error {
	sz := e.cfg.size
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0x5b57))
	domain := workload.DomainForRows(int64(sz.probeHeapRows))
	schema, err := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindInt}, types.Column{Name: "d", Kind: types.KindInt})
	if err != nil {
		return err
	}
	newRow := func() types.Row {
		return types.Row{types.NewInt(rng.Int63n(domain)), types.NewInt(rng.Int63n(domain)),
			types.NewInt(rng.Int63n(domain)), types.NewInt(rng.Int63n(domain))}
	}
	payloads := make([][]byte, sz.probeHeapRows)
	for i := range payloads {
		if payloads[i], err = types.EncodeRow(nil, newRow()); err != nil {
			return err
		}
	}

	stats := &storage.AccessStats{}
	heap := storage.NewHeapFile(stats)
	r.op(1)
	d, err := timed(rec, "storage.heap_insert", func() error {
		for _, p := range payloads {
			if _, err := heap.Insert(p); err != nil {
				return err
			}
		}
		return nil
	})
	if !r.must(err, "HeapFile.Insert") {
		return nil
	}
	r.set("storage.heap_insert_ns", float64(d)/float64(sz.probeHeapRows), sz.probeHeapRows)

	scanned := 0
	d, _ = timed(rec, "storage.heap_scan", func() error {
		heap.Scan(func(storage.RID, []byte) bool { scanned++; return true })
		return nil
	})
	r.check(scanned == sz.probeHeapRows, "heap scan saw %d of %d rows", scanned, sz.probeHeapRows)
	r.set("storage.heap_scan_ns_per_row", float64(d)/float64(scanned), scanned)

	var ix *index.Index
	def := catalog.IndexDef{Table: workload.PaperTable, Columns: []string{"a", "b"}}
	r.op(1)
	d, err = timed(rec, "index.build", func() error {
		ix, err = index.Build(def, schema, heap)
		return err
	})
	if !r.must(err, "index.Build") {
		return nil
	}
	r.set("index.build_ms", float64(d)/1e6, 1)

	r.op(1)
	d, err = timed(rec, "index.maintain", func() error {
		for i := 0; i < sz.probeMaintain; i++ {
			row := newRow()
			payload, err := types.EncodeRow(nil, row)
			if err != nil {
				return err
			}
			rid, err := heap.Insert(payload)
			if err != nil {
				return err
			}
			if err := ix.Insert(row, rid); err != nil {
				return err
			}
		}
		return nil
	})
	if !r.must(err, "Index.Insert") {
		return nil
	}
	r.check(ix.Entries() == int64(sz.probeHeapRows+sz.probeMaintain), "index holds %d entries, heap %d rows", ix.Entries(), sz.probeHeapRows+sz.probeMaintain)
	r.set("index.maintain_ns_per_row", float64(d)/float64(sz.probeMaintain), sz.probeMaintain)

	keys := make([][]byte, sz.probeTreeKeys)
	for i := range keys {
		if keys[i], err = keyenc.Encode(types.NewInt(rng.Int63n(domain * 4))); err != nil {
			return err
		}
	}
	tree := btree.New(&storage.AccessStats{})
	r.op(1)
	d, err = timed(rec, "btree.insert", func() error {
		for i, k := range keys {
			if err := tree.Insert(k, storage.RID{Page: storage.PageID(i / 100), Slot: uint16(i % 100)}); err != nil {
				return err
			}
		}
		return nil
	})
	if !r.must(err, "Tree.Insert") {
		return nil
	}
	r.set("btree.insert_ns", float64(d)/float64(sz.probeTreeKeys), sz.probeTreeKeys)
	found := 0
	d, _ = timed(rec, "btree.seek", func() error {
		for _, k := range keys {
			if tree.Seek(k).Valid() {
				found++
			}
		}
		return nil
	})
	r.check(found == sz.probeTreeKeys, "B+-tree found %d of %d inserted keys", found, sz.probeTreeKeys)
	r.set("btree.seek_ns", float64(d)/float64(sz.probeTreeKeys), sz.probeTreeKeys)
	return nil
}

// probeEngine times whole statements on the workload's table through the
// engine's SQL entry point: scans without an index, the index build,
// seeks and inserts with it installed, and the drop.
func probeEngine(e *env, r *result, rec *recorder) error {
	sz := e.cfg.size
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0xe61e))
	domain := workload.DomainForRows(e.cfg.rows)
	// Point queries on column a: scans while no index exists, seeks
	// once I(a) is installed.
	var reads []workload.Statement
	for len(reads) < sz.probeSeeks {
		s, err := workload.NewStatement(fmt.Sprintf("SELECT a FROM %s WHERE a = %d", workload.PaperTable, rng.Int63n(domain)))
		if err != nil {
			return err
		}
		reads = append(reads, s)
	}
	names, err := e.db.IndexNames(workload.PaperTable)
	if err != nil {
		return err
	}
	r.check(len(names) == 0, "table still has indexes %v before the engine probe", names)

	var scanMS []float64
	r.op(sz.probeScans)
	for _, s := range reads[:sz.probeScans] {
		d, err := timed(rec, "engine.select_scan", func() error {
			_, err := e.db.ExecStmt(s.Stmt)
			return err
		})
		if !r.must(err, "scan SELECT") {
			return nil
		}
		scanMS = append(scanMS, float64(d)/1e6)
	}
	r.set("engine.select_scan_ms", median(scanMS), len(scanMS))

	var createMS, dropUS []float64
	createDrop := func(cols, name string, keep bool) bool {
		r.op(1)
		d, err := timed(rec, "engine.create_index", func() error {
			_, err := e.db.Exec(fmt.Sprintf("CREATE INDEX ON %s (%s)", workload.PaperTable, cols))
			return err
		})
		if !r.must(err, "CREATE INDEX") {
			return false
		}
		createMS = append(createMS, float64(d)/1e6)
		if keep {
			return true
		}
		r.op(1)
		d, err = timed(rec, "engine.drop_index", func() error {
			_, err := e.db.Exec(fmt.Sprintf("DROP INDEX %s ON %s", name, workload.PaperTable))
			return err
		})
		if !r.must(err, "DROP INDEX") {
			return false
		}
		dropUS = append(dropUS, float64(d)/1e3)
		return true
	}
	if !createDrop("b", "I(b)", false) || !createDrop("c, d", "I(c,d)", false) || !createDrop("a", "I(a)", true) {
		return nil
	}

	pages := e.db.AccessStats().Snapshot()
	r.op(1)
	d, err := timed(rec, "engine.select_seek", func() error {
		for _, s := range reads {
			if _, err := e.db.ExecStmt(s.Stmt); err != nil {
				return err
			}
		}
		return nil
	})
	if !r.must(err, "seek SELECT") {
		return nil
	}
	r.set("engine.select_seek_us", float64(d)/1e3/float64(sz.probeSeeks), sz.probeSeeks)

	ins, err := workload.GenerateInserts(workload.PaperTable, 4, domain, rng, sz.probeInserts)
	if err != nil {
		return err
	}
	r.op(1)
	d, err = timed(rec, "engine.insert", func() error {
		for _, s := range ins {
			if _, err := e.db.ExecStmt(s.Stmt); err != nil {
				return err
			}
		}
		return nil
	})
	if !r.must(err, "INSERT") {
		return nil
	}
	r.set("engine.insert_us", float64(d)/1e3/float64(sz.probeInserts), sz.probeInserts)
	touched := e.db.AccessStats().Snapshot().Sub(pages).Total()
	r.set("engine.pages_per_stmt", float64(touched)/float64(sz.probeSeeks+sz.probeInserts), sz.probeSeeks+sz.probeInserts)

	r.op(1)
	d, err = timed(rec, "engine.drop_index", func() error {
		_, err := e.db.Exec("DROP INDEX I(a) ON " + workload.PaperTable)
		return err
	})
	if !r.must(err, "DROP INDEX") {
		return nil
	}
	dropUS = append(dropUS, float64(d)/1e3)
	r.set("engine.create_index_ms", median(createMS), len(createMS))
	r.set("engine.drop_index_us", median(dropUS), len(dropUS))
	return nil
}
