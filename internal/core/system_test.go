package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/geom"
	"repro/internal/trace"
)

// testSystem builds a system that is NOT started: tests drive transactions
// by hand and step the engine.
func testSystem(t *testing.T, scheme config.Scheme) *System {
	t.Helper()
	prof, ok := trace.ProfileByName("ammp", 8)
	if !ok {
		t.Fatal("profile missing")
	}
	s, err := NewSystem(config.Default(scheme), prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drain runs the engine until no transactions remain outstanding.
func drain(t *testing.T, s *System) {
	t.Helper()
	for limit := s.Engine.Now() + 100000; len(s.txns) > 0; s.Engine.Step() {
		if s.Engine.Now() >= limit {
			t.Fatalf("transactions stuck: %d outstanding", len(s.txns))
		}
	}
}

func TestReadMissFetchesFromMemory(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	addr := cache.LineAddr(0x12345)
	s.startTxn(s.CPUs[0], addr, false)
	drain(t, s)
	if s.M.L2Misses.Value() != 1 || s.M.MemReads.Value() != 1 {
		t.Fatalf("misses=%d memreads=%d", s.M.L2Misses.Value(), s.M.MemReads.Value())
	}
	// The line now resides at its home cluster.
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	if loc, ok := s.lineLoc[addr]; !ok || loc != home {
		t.Fatalf("line at %d, want home %d", loc, home)
	}
	// Miss latency includes the 260-cycle memory access.
	if s.M.MissLatency.Min() < uint64(s.Cfg.MemoryCycles) {
		t.Errorf("miss latency %d below memory latency", s.M.MissLatency.Min())
	}
	// A second access hits.
	s.startTxn(s.CPUs[0], addr, false)
	drain(t, s)
	if s.M.L2Hits.Value() != 1 {
		t.Fatalf("hits=%d after refetch", s.M.L2Hits.Value())
	}
}

func TestSNUCAProbesOnlyHome(t *testing.T) {
	s := testSystem(t, config.CMPSNUCA3D)
	addr := cache.LineAddr(0x777)
	s.Clusters[s.Cfg.L2.PlaceOf(addr).HomeCluster].install(addr, 0, false)
	s.startTxn(s.CPUs[0], addr, false)
	drain(t, s)
	if s.M.ProbesSent.Value() != 1 {
		t.Errorf("static scheme sent %d probes, want 1", s.M.ProbesSent.Value())
	}
	if s.M.L2Hits.Value() != 1 {
		t.Error("home-cluster hit not recorded")
	}
}

func TestPerfectSearchProbesOnce(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA)
	addr := cache.LineAddr(0x888)
	// Park the line far from its home so only the location map can find it
	// in one probe.
	s.Clusters[3].install(addr, 0, false)
	s.startTxn(s.CPUs[0], addr, false)
	drain(t, s)
	if s.M.ProbesSent.Value() != 1 {
		t.Errorf("perfect search sent %d probes, want 1", s.M.ProbesSent.Value())
	}
	if s.M.L2Hits.Value() != 1 {
		t.Error("hit not recorded")
	}
}

func TestTwoStepSearchFindsRemoteLine(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := s.CPUs[0]
	// Place the line in a cluster that is neither local nor a step-1
	// neighbor of CPU 0.
	step1 := map[int]bool{cpu.cluster: true}
	for _, nb := range s.Top.InLayerNeighbors(cpu.cluster) {
		step1[nb] = true
	}
	for _, vn := range s.Top.VerticalNeighbors(cpu.pos) {
		step1[vn] = true
	}
	remote := -1
	for id := range s.Clusters {
		if !step1[id] {
			remote = id
			break
		}
	}
	if remote < 0 {
		t.Fatal("no remote cluster available")
	}
	addr := cache.LineAddr(0x999)
	s.Clusters[remote].install(addr, 0, false)

	s.startTxn(cpu, addr, false)
	drain(t, s)
	if s.M.Step2Searches.Value() != 1 {
		t.Errorf("step-2 searches = %d, want 1", s.M.Step2Searches.Value())
	}
	if s.M.L2Hits.Value() != 1 || s.M.L2Misses.Value() != 0 {
		t.Errorf("hits=%d misses=%d", s.M.L2Hits.Value(), s.M.L2Misses.Value())
	}
}

func TestStep1HitAvoidsStep2(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := s.CPUs[0]
	addr := cache.LineAddr(0xabc)
	s.Clusters[cpu.cluster].install(addr, 0, false)
	s.startTxn(cpu, addr, false)
	drain(t, s)
	if s.M.Step2Searches.Value() != 0 {
		t.Error("local hit escalated to step 2")
	}
	// Local hits are fast: direct tag + bank + short data trip.
	if s.M.HitLatency.Mean() > 20 {
		t.Errorf("local hit latency %.1f implausibly high", s.M.HitLatency.Mean())
	}
}

func TestMigrationTowardAccessor(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := s.CPUs[0]
	// Start the line on the CPU's own layer, far away.
	layer := cpu.pos.Layer
	per := s.Top.ClustersPerLayer()
	far := -1
	for i := 0; i < per; i++ {
		id := layer*per + i
		if id != cpu.cluster && s.clusterCPU[id] < 0 {
			far = id // take the last processor-free cluster on the layer
		}
	}
	addr := cache.LineAddr(0x4242)
	s.Clusters[far].install(addr, 0, false)

	prevDist := clusterDist(s, far, cpu.cluster)
	for round := 0; round < 12 && s.lineLoc[addr] != cpu.cluster; round++ {
		for i := 0; i < s.Cfg.MigrationThreshold; i++ {
			s.startTxn(cpu, addr, false)
			drain(t, s)
		}
		// Let any triggered migration complete.
		s.Engine.Run(5000)
		cur := s.lineLoc[addr]
		d := clusterDist(s, cur, cpu.cluster)
		if d > prevDist {
			t.Fatalf("line moved away: cluster %d at distance %d (was %d)", cur, d, prevDist)
		}
		prevDist = d
	}
	if s.lineLoc[addr] != cpu.cluster {
		t.Fatalf("line never reached the accessor's cluster (at %d, want %d)",
			s.lineLoc[addr], cpu.cluster)
	}
	if s.M.Migrations.Value() == 0 {
		t.Fatal("no migrations counted")
	}
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}
}

// clusterDist is the grid distance between two same-layer clusters.
func clusterDist(s *System, a, b int) int {
	per := s.Top.ClustersPerLayer()
	ax, ay := a%per%s.Top.ClusterW, a%per/s.Top.ClusterW
	bx, by := b%per%s.Top.ClusterW, b%per/s.Top.ClusterW
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

func TestInterLayerMigrationStaysOnLayer(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := s.CPUs[0]
	otherLayer := 1 - cpu.pos.Layer
	per := s.Top.ClustersPerLayer()
	// Find a processor-free cluster on the other layer, away from the
	// CPU's pillar cluster there.
	pillar := s.Top.PillarOf(cpu.pos)
	pillarCluster := s.Top.ClusterOf(withLayer(pillar, otherLayer))
	far := -1
	for i := 0; i < per; i++ {
		id := otherLayer*per + i
		if id != pillarCluster && s.clusterCPU[id] < 0 {
			far = id
		}
	}
	addr := cache.LineAddr(0x5151)
	s.Clusters[far].install(addr, 0, false)

	for round := 0; round < 12 && s.lineLoc[addr] != pillarCluster; round++ {
		for i := 0; i < s.Cfg.MigrationThreshold; i++ {
			s.startTxn(cpu, addr, false)
			drain(t, s)
		}
		s.Engine.Run(5000)
		if got := s.Top.ClusterLayer(s.lineLoc[addr]); got != otherLayer {
			t.Fatalf("line crossed layers: now on layer %d", got)
		}
	}
	if s.lineLoc[addr] != pillarCluster {
		t.Fatalf("line at cluster %d, want pillar cluster %d", s.lineLoc[addr], pillarCluster)
	}
}

func TestMigrationSkipsCPUClusters(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	// Unit-level: stepping toward a destination skips occupied clusters.
	cpu := 0
	from := -1
	dst := s.Top.CPUCluster(cpu)
	// Find a processor cluster adjacent (in grid) between some far cluster
	// and dst by brute force: verify stepToward never returns a cluster
	// owned by another CPU.
	per := s.Top.ClustersPerLayer()
	layer := s.Top.ClusterLayer(dst)
	for i := 0; i < per; i++ {
		id := layer*per + i
		if id != dst {
			from = id
			next := s.stepToward(from, dst, cpu)
			if next >= 0 && next != dst {
				if owner := s.clusterCPU[next]; owner >= 0 && owner != cpu {
					t.Errorf("step from %d landed on CPU %d's cluster %d", from, owner, next)
				}
			}
		}
	}
}

func TestNoMigrationInSNUCA(t *testing.T) {
	s := testSystem(t, config.CMPSNUCA3D)
	addr := cache.LineAddr(0x31)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)
	for i := 0; i < 10; i++ {
		s.startTxn(s.CPUs[0], addr, false)
		drain(t, s)
	}
	if s.M.Migrations.Value() != 0 {
		t.Errorf("static scheme migrated %d times", s.M.Migrations.Value())
	}
	if s.lineLoc[addr] != home {
		t.Error("line moved in static scheme")
	}
}

func TestStoreInvalidatesOtherSharers(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	addr := cache.LineAddr(0x61)
	// CPU 1 loads the line (becomes a sharer with an L1 copy).
	s.startTxn(s.CPUs[1], addr, false)
	drain(t, s)
	s.CPUs[1].l1.install(addr, false)
	if hit, _ := s.CPUs[1].l1.lookup(addr); !hit {
		t.Fatal("setup: CPU 1 missing L1 copy")
	}
	// CPU 0 stores: read-for-ownership must invalidate CPU 1's copy.
	s.startTxn(s.CPUs[0], addr, true)
	drain(t, s)
	s.Engine.Run(2000) // let invalidations and acks arrive
	if hit, _ := s.CPUs[1].l1.lookup(addr); hit {
		t.Error("CPU 1's L1 copy survived a remote store")
	}
	if s.M.Invalidations.Value() == 0 {
		t.Error("no invalidations counted")
	}
	if s.M.InvalAcks.Value() == 0 {
		t.Error("no invalidation acks received")
	}
}

func TestExclusiveTransactionSetsDirty(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	addr := cache.LineAddr(0x71)
	home := s.Cfg.L2.PlaceOf(addr).HomeCluster
	s.Clusters[home].install(addr, 0, false)
	s.startTxn(s.CPUs[2], addr, true)
	drain(t, s)
	p := s.Cfg.L2.PlaceOf(addr)
	set := s.Clusters[s.lineLoc[addr]].set(p)
	way, ok := set.Lookup(p.Tag)
	if !ok {
		t.Fatal("line vanished")
	}
	e := set.Way(way)
	if !e.Dirty {
		t.Error("store did not mark line dirty")
	}
	if e.Sharers != 1<<2 {
		t.Errorf("sharers = %b, want only CPU 2", e.Sharers)
	}
}

func TestEvictionBackInvalidates(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	// Fill one set completely, with CPU 3 sharing the first line.
	p0 := s.Cfg.L2.PlaceOf(cache.LineAddr(0))
	cl := s.Clusters[0]
	ways := s.Cfg.L2.Ways
	stride := cache.LineAddr(s.Cfg.L2.BanksPerCluster * s.Cfg.L2.SetsPerBank * s.Cfg.L2.Clusters)
	first := cache.LineAddr(0)
	s.CPUs[3].l1.install(first, false)
	cl.install(first, 1<<3, true)
	for i := 1; i < ways; i++ {
		cl.install(first+stride*cache.LineAddr(i), 0, false)
	}
	if got := cl.set(p0).ValidCount(); got != ways {
		t.Fatalf("set holds %d lines, want %d", got, ways)
	}
	// One more insert forces an eviction.
	cl.install(first+stride*cache.LineAddr(ways), 0, false)
	s.Engine.Run(2000)
	if s.M.Evictions.Value() != 1 {
		t.Fatalf("evictions = %d", s.M.Evictions.Value())
	}
	// The dirty victim counts a memory writeback, and its sharer loses the
	// L1 copy (back-invalidation) if the victim was the shared line.
	if s.M.BackInvals.Value()+s.M.MemWrites.Value() == 0 {
		t.Error("eviction produced neither back-invalidations nor writebacks")
	}
}

func TestLazyMigrationOldCopyHittable(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	cpu := s.CPUs[0]
	layer := cpu.pos.Layer
	per := s.Top.ClustersPerLayer()
	far := -1
	for i := 0; i < per; i++ {
		id := layer*per + i
		if id != cpu.cluster && s.clusterCPU[id] < 0 {
			far = id
		}
	}
	addr := cache.LineAddr(0x91)
	s.Clusters[far].install(addr, 0, false)
	// Drive exactly threshold hits to trigger the migration, then probe
	// immediately: the old copy must still satisfy the request.
	for i := 0; i < s.Cfg.MigrationThreshold; i++ {
		s.startTxn(cpu, addr, false)
		drain(t, s)
	}
	if s.M.Migrations.Value() != 1 {
		t.Fatalf("migrations = %d, want 1", s.M.Migrations.Value())
	}
	// Probe while MigData may still be in flight.
	hitsBefore := s.M.L2Hits.Value()
	s.startTxn(cpu, addr, false)
	drain(t, s)
	if s.M.L2Hits.Value() != hitsBefore+1 {
		t.Error("request during migration missed (false miss)")
	}
	s.Engine.Run(5000)
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Results {
		prof, _ := trace.ProfileByName("art", 8)
		s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 99)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(99)
		s.Start()
		s.Run(30000)
		return s.Results()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestWarmResidency(t *testing.T) {
	for _, scheme := range []config.Scheme{config.CMPDNUCA2D, config.CMPSNUCA3D, config.CMPDNUCA3D} {
		prof, _ := trace.ProfileByName("art", 8)
		s, err := NewSystem(config.Default(scheme), prof, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(3)
		if err := s.CheckSingleCopy(); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		// The vast majority of the working set must be resident.
		total, resident := 0, 0
		count := func(r trace.Region) {
			for i := 0; i < r.Len(); i++ {
				total++
				if _, ok := s.lineLoc[r.Line(i)]; ok {
					resident++
				}
			}
		}
		count(prof.SharedRegion())
		for id := range s.CPUs {
			count(prof.HotRegion(id))
			count(prof.StreamRegion(id))
		}
		if float64(resident) < 0.95*float64(total) {
			t.Errorf("%v: only %d of %d lines resident after warm", scheme, resident, total)
		}
		// Static scheme: every resident line is at its home cluster.
		if scheme == config.CMPSNUCA3D {
			for addr, loc := range s.lineLoc {
				if home := s.Cfg.L2.PlaceOf(addr).HomeCluster; loc != home {
					t.Fatalf("SNUCA line %#x at %d, home %d", uint64(addr), loc, home)
				}
			}
		}
	}
}

func TestEndToEndInvariants(t *testing.T) {
	for _, scheme := range []config.Scheme{config.CMPDNUCA, config.CMPDNUCA2D, config.CMPSNUCA3D, config.CMPDNUCA3D} {
		prof, _ := trace.ProfileByName("galgel", 8)
		s, err := NewSystem(config.Default(scheme), prof, 11)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(11)
		s.Start()
		s.Run(20000)
		s.ResetStats()
		s.Run(60000)
		r := s.Results()
		if r.Instructions == 0 || r.IPC <= 0 {
			t.Errorf("%v: no progress (%+v)", scheme, r)
		}
		if r.L2Hits+r.L2Misses == 0 {
			t.Errorf("%v: no completed L2 transactions", scheme)
		}
		if r.L2Hits > 0 && (r.AvgL2HitLatency < 5 || r.AvgL2HitLatency > 200) {
			t.Errorf("%v: implausible hit latency %.1f", scheme, r.AvgL2HitLatency)
		}
		if scheme == config.CMPSNUCA3D && r.Migrations != 0 {
			t.Errorf("SNUCA migrated %d times", r.Migrations)
		}
		if err := s.CheckSingleCopy(); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

func TestResultsWindowing(t *testing.T) {
	prof, _ := trace.ProfileByName("apsi", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(5)
	s.Start()
	s.Run(20000)
	s.ResetStats()
	r0 := s.Results()
	if r0.Cycles != 0 || r0.Instructions != 0 {
		t.Fatalf("fresh window not empty: %+v", r0)
	}
	s.Run(10000)
	r1 := s.Results()
	if r1.Cycles != 10000 {
		t.Errorf("window cycles = %d, want 10000", r1.Cycles)
	}
	if r1.Instructions == 0 {
		t.Error("no instructions in window")
	}
}

func withLayer(c geom.Coord, layer int) geom.Coord {
	c.Layer = layer
	return c
}

func TestMemoryControllerPath(t *testing.T) {
	s := testSystem(t, config.CMPDNUCA3D)
	if len(s.memCtrls) != s.Cfg.MemControllers {
		t.Fatalf("%d controllers, want %d", len(s.memCtrls), s.Cfg.MemControllers)
	}
	for i, c := range s.memCtrls {
		if c.Layer != 0 {
			t.Errorf("controller %d not on layer 0: %v", i, c)
		}
		if c.Y != 0 && c.Y != s.Top.Dim.Height-1 {
			t.Errorf("controller %d not on a chip edge: %v", i, c)
		}
	}
	// A miss travels to a controller and back: latency strictly above the
	// bare DRAM latency by at least the round-trip hops.
	addr := cache.LineAddr(0xdead)
	s.startTxn(s.CPUs[0], addr, false)
	drain(t, s)
	min := s.M.MissLatency.Min()
	if min <= uint64(s.Cfg.MemoryCycles)+4 {
		t.Errorf("miss latency %d barely above DRAM latency; network legs missing", min)
	}
	// Different CPUs prefer their nearest controller.
	a := s.nearestMemCtrl(s.Top.CPUs[0])
	found := false
	for i := range s.CPUs {
		if s.nearestMemCtrl(s.Top.CPUs[i]) != a {
			found = true
		}
	}
	if !found && s.Cfg.MemControllers > 1 {
		t.Error("all CPUs map to one controller")
	}
}

func TestMixedWorkloads(t *testing.T) {
	cfg := config.Default(config.CMPDNUCA3D)
	profs := make([]trace.Profile, cfg.NumCPUs)
	for i := range profs {
		name := "art"
		if i%2 == 1 {
			name = "mgrid"
		}
		profs[i], _ = trace.ProfileByName(name, cfg.NumCPUs)
	}
	s, err := NewSystemMixed(cfg, profs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Benchmark != "art+mgrid" {
		t.Errorf("label = %q", s.Benchmark)
	}
	// Distinct programs get distinct namespaces; same program shares one.
	if s.profs[0].Instance == s.profs[1].Instance {
		t.Error("art and mgrid share a namespace")
	}
	if s.profs[0].Instance != s.profs[2].Instance {
		t.Error("two art cores got different namespaces")
	}
	s.Warm(5)
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Run(20_000)
	s.ResetStats()
	s.Run(60_000)
	r := s.Results()
	if r.L2Hits == 0 || r.IPC <= 0 {
		t.Fatalf("mixed run made no progress: %+v", r)
	}
	// The mgrid cores are L2-bound and must run slower than the art cores.
	var artInstr, mgridInstr uint64
	for i, c := range s.CPUs {
		if i%2 == 0 {
			artInstr += c.instrs
		} else {
			mgridInstr += c.instrs
		}
	}
	if mgridInstr >= artInstr {
		t.Errorf("mgrid cores (%d instrs) not slower than art cores (%d)", mgridInstr, artInstr)
	}
}

func TestMixedRejectsWrongCount(t *testing.T) {
	cfg := config.Default(config.CMPDNUCA3D)
	p, _ := trace.ProfileByName("art", 8)
	if _, err := NewSystemMixed(cfg, []trace.Profile{p}, 1); err == nil {
		t.Error("accepted 1 profile for 8 CPUs")
	}
}

// fixedStream replays a fixed slice of refs forever.
type fixedStream struct {
	refs []trace.Ref
	pos  int
}

func (f *fixedStream) Next() trace.Ref {
	r := f.refs[f.pos%len(f.refs)]
	f.pos++
	return r
}

func TestStreamDrivenSystem(t *testing.T) {
	cfg := config.Default(config.CMPSNUCA3D)
	streams := make([]trace.Stream, cfg.NumCPUs)
	var footprint []cache.LineAddr
	for i := range streams {
		var refs []trace.Ref
		for j := 0; j < 2048; j++ {
			addr := cache.LineAddr(0x8000*(i+1) + j)
			refs = append(refs, trace.Ref{Addr: addr, Gap: 2, Write: j%9 == 0})
			footprint = append(footprint, addr)
		}
		streams[i] = &fixedStream{refs: refs}
	}
	s, err := NewSystemStreams(cfg, streams, "unit-stream")
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(1) // must be a no-op for stream systems
	if len(s.lineLoc) != 0 {
		t.Fatal("profile warm ran on a stream-driven system")
	}
	s.WarmAddresses(footprint)
	if len(s.lineLoc) != len(footprint) {
		t.Fatalf("warmed %d of %d lines", len(s.lineLoc), len(footprint))
	}
	s.Start()
	s.Run(20_000)
	s.ResetStats()
	s.Run(50_000)
	r := s.Results()
	if r.Benchmark != "unit-stream" {
		t.Errorf("label = %q", r.Benchmark)
	}
	if r.L2Hits == 0 {
		t.Fatal("stream-driven run produced no L2 hits")
	}
	if err := s.CheckSingleCopy(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsRejectWrongCount(t *testing.T) {
	cfg := config.Default(config.CMPSNUCA3D)
	if _, err := NewSystemStreams(cfg, []trace.Stream{&fixedStream{refs: []trace.Ref{{}}}}, "x"); err == nil {
		t.Error("accepted 1 stream for 8 CPUs")
	}
}

func TestPerClassLatencyBreakdown(t *testing.T) {
	prof, _ := trace.ProfileByName("equake", 8)
	s, err := NewSystem(config.Default(config.CMPDNUCA3D), prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Warm(5)
	s.Start()
	s.Run(30_000)
	s.ResetStats()
	s.Run(100_000)
	r := s.Results()
	if r.AvgPrivateHitLatency <= 0 || r.AvgSharedHitLatency <= 0 {
		t.Fatalf("class latencies missing: %+v", r)
	}
	// Migration localizes private lines; shared lines cannot follow anyone.
	if r.AvgPrivateHitLatency >= r.AvgSharedHitLatency {
		t.Errorf("private hits (%.1f) not faster than shared hits (%.1f)",
			r.AvgPrivateHitLatency, r.AvgSharedHitLatency)
	}
	// Class means must bracket the overall mean.
	lo := r.AvgPrivateHitLatency
	hi := r.AvgSharedHitLatency
	if r.AvgCodeHitLatency > hi {
		hi = r.AvgCodeHitLatency
	}
	if r.AvgL2HitLatency < lo-1 || r.AvgL2HitLatency > hi+1 {
		t.Errorf("overall %.1f outside class range [%.1f, %.1f]", r.AvgL2HitLatency, lo, hi)
	}
}

func TestTagPortContention(t *testing.T) {
	run := func(ports int) (float64, uint64) {
		prof, _ := trace.ProfileByName("mgrid", 8)
		cfg := config.Default(config.CMPSNUCA3D)
		cfg.TagPorts = ports
		s, err := NewSystem(cfg, prof, 5)
		if err != nil {
			t.Fatal(err)
		}
		s.Warm(5)
		s.Start()
		s.Run(20_000)
		s.ResetStats()
		s.Run(80_000)
		var wait uint64
		for _, cl := range s.Clusters {
			wait += cl.TagPortWait
		}
		return s.Results().AvgL2HitLatency, wait
	}
	ideal, idealWait := run(0)
	single, singleWait := run(1)
	if idealWait != 0 {
		t.Errorf("unlimited ports accumulated %d wait cycles", idealWait)
	}
	if singleWait == 0 {
		t.Error("single-ported tag arrays never contended under mgrid load")
	}
	if single < ideal {
		t.Errorf("single-ported latency %.1f below idealized %.1f", single, ideal)
	}
}

func TestTagPortSerializesBackToBackProbes(t *testing.T) {
	prof, _ := trace.ProfileByName("ammp", 8)
	cfg := config.Default(config.CMPSNUCA3D)
	cfg.TagPorts = 1
	s, err := NewSystem(cfg, prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Clusters[0]
	// Two lookups in the same cycle: the second waits TagCycles.
	d1 := cl.tagDelay()
	d2 := cl.tagDelay()
	if d1 != uint64(cfg.TagCycles) {
		t.Errorf("first delay %d, want %d", d1, cfg.TagCycles)
	}
	if d2 != uint64(2*cfg.TagCycles) {
		t.Errorf("second delay %d, want %d", d2, 2*cfg.TagCycles)
	}
	if cl.TagPortWait != uint64(cfg.TagCycles) {
		t.Errorf("wait = %d", cl.TagPortWait)
	}
}
