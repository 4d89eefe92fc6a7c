package core

// Span names emitted by the solvers — the core half of the taxonomy in
// DESIGN.md §9. Every span is emitted through Problem.Tracer, so with
// the default nil tracer each site costs two nil checks and nothing
// else.
const (
	// SpanSolve covers one Solve dispatch end to end (attrs: strategy,
	// ok). It is the root span of a solve: everything below nests
	// inside its wall time.
	SpanSolve = "solve"
	// SpanMatrixBuild covers one dense EXEC/TRANS cost-table build
	// (attrs: stages, configs, ok).
	SpanMatrixBuild = "matrix.build"
	// SpanMatrixExecStage covers one stage's EXEC row filled by the
	// model, emitted from inside the worker pool (attrs: stage) — the
	// concurrent-emission hot site. A row a StoredRowModel hands over
	// has none.
	SpanMatrixExecStage = "matrix.exec_stage"
	// SpanSeqgraphDP covers the unconstrained sequence-graph DP loop
	// (attrs: stages, configs).
	SpanSeqgraphDP = "seqgraph.dp"
	// SpanKAwareSweep covers one k-aware DP layer sweep — one stage of
	// the layered relaxation (attrs: stage, layers, configs).
	SpanKAwareSweep = "kaware.sweep"
	// SpanGreedyReduce covers GREEDY-SEQ candidate reduction (attrs:
	// reduced).
	SpanGreedyReduce = "greedyseq.reduce"
	// SpanRankingSweep covers the ranking solver's backward cost-to-go
	// sweep (attrs: stages, configs).
	SpanRankingSweep = "ranking.sweep"
	// SpanRankingExpand covers one batch of frontier expansions (at
	// most rankingCtxCheckInterval pops; attrs: expansions,
	// paths_ranked, frontier).
	SpanRankingExpand = "ranking.expand"
	// SpanMergeStep covers one sequential-merging iteration: the
	// penalty scan over adjacent pairs plus the applied merge (attrs:
	// step, runs).
	SpanMergeStep = "merge.step"
	// SpanResilientRung covers one attempted rung of the resilient
	// ladder, verification included (attrs: strategy, ok, class).
	SpanResilientRung = "resilient.rung"
	// SpanPartitionCluster covers the interaction-graph clustering and
	// cross-product check of a partitioned solve (attrs: components,
	// factored, configs).
	SpanPartitionCluster = "partition.cluster"
	// SpanPartitionComponent covers one component's solve — exact
	// layered DP or anytime beam (attrs: bits, configs, exact, ok).
	SpanPartitionComponent = "partition.component"
	// SpanPartitionRecombine covers the budget knapsack, the
	// synchronization repair pass, and the composed re-pricing (attrs:
	// components, ok, gap).
	SpanPartitionRecombine = "partition.recombine"
)
