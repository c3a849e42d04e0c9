// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment prints the simulated values next
// to the paper's published numbers where the paper gives them, so the
// reproduction quality is visible at a glance.
//
// Usage:
//
//	experiments -all                 # everything (several minutes)
//	experiments -table 3             # one table (1..5)
//	experiments -figure 13           # one figure (13..18)
//	experiments -bench mgrid,swim    # restrict figure benchmarks
//	experiments -measure 400000      # larger statistics window
//	experiments -all -parallel 8     # fan independent runs over 8 workers
//
// Every simulation is deterministic in its seed and self-contained, so
// -parallel only changes wall-clock time: the printed output is
// byte-identical for any worker count (-parallel 1 runs strictly
// sequentially, the historical behavior).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	nim "repro"
	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/trace"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 0, "repeat Figure 13/15 runs across N seeds and print mean +/- stddev")
		scaling  = flag.Bool("scaling", false, "run the CPU-count scaling study (4/8/16 cores)")
		csvDir   = flag.String("csv", "", "also write each figure's data as CSV into this directory")
		ablate   = flag.Bool("ablations", false, "run the design-choice ablations")
		brkdown  = flag.Bool("breakdown", false, "run the L2 latency decomposition across the four schemes")
		thermRun = flag.Bool("thermal", false, "run the transient thermal study across schemes and CPU placements")
		profRun  = flag.Bool("profile", false, "run the host-side phase-dominance study (wall-clock, so host-dependent; excluded from -all)")
		dtmRun   = flag.Bool("dtm", false, "run the dynamic-thermal-management policy matrix on the hot configurations")
		table    = flag.Int("table", 0, "reproduce one table (1..5)")
		figure   = flag.Int("figure", 0, "reproduce one figure (13..18)")
		all      = flag.Bool("all", false, "reproduce every table and figure")
		benches  = flag.String("bench", "", "comma-separated benchmark subset for figures")
		warm     = flag.Uint64("warm", 50_000, "settle cycles before measurement")
		measure  = flag.Uint64("measure", 250_000, "measurement window in cycles")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = strictly sequential; output is identical either way)")
	)
	flag.Parse()

	opt := nim.Options{WarmCycles: *warm, MeasureCycles: *measure, Seed: *seed, Parallel: *parallel}
	names := benchNames(*benches)
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		csvOut = *csvDir
	}

	ran := false
	do := func(n int, sel *int, f func()) {
		if *all || *sel == n {
			f()
			ran = true
		}
	}
	do(1, table, table1)
	do(2, table, table2)
	do(3, table, table3)
	do(4, table, table4)
	do(5, table, table5)
	do(13, figure, func() { figures131415(names, opt) })
	do(16, figure, func() { figure16(names, opt) })
	do(17, figure, func() { figure17(names, opt) })
	do(18, figure, func() { figure18(names, opt) })
	// Figures 13, 14 and 15 come from the same runs.
	if !*all && (*figure == 14 || *figure == 15) {
		figures131415(names, opt)
		ran = true
	}
	if *ablate || *all {
		ablations(opt)
		ran = true
	}
	if *brkdown || *all {
		breakdowns(names, opt)
		ran = true
	}
	if *thermRun || *all {
		thermalStudy(opt)
		ran = true
	}
	if *dtmRun || *all {
		dtmStudy(opt)
		ran = true
	}
	if *seeds > 1 {
		confidence(names, opt, *seeds)
		ran = true
	}
	if *scaling {
		cpuScaling(opt)
		ran = true
	}
	// Deliberately not part of -all: the numbers are wall-clock on this
	// host, so including them would make -all's output machine-dependent.
	if *profRun {
		profileStudy(opt)
		ran = true
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func benchNames(list string) []string {
	if list == "" {
		var names []string
		for _, p := range nim.Benchmarks(8) {
			names = append(names, p.Name)
		}
		return names
	}
	return strings.Split(list, ",")
}

// sweep fans a slice of independent simulation jobs over opt.Parallel
// workers and returns their Results in input order, exiting on the first
// failed job. Because job order is preserved and every simulation is
// seed-deterministic, the caller's printed output does not depend on the
// worker count.
func sweep(jobs []nim.SweepJob, opt nim.Options) []nim.Results {
	rs := nim.RunSweep(jobs, opt.Parallel, nil)
	if err := nim.SweepError(rs); err != nil {
		fatal(err)
	}
	out := make([]nim.Results, len(rs))
	for i, r := range rs {
		out[i] = r.Results
	}
	return out
}

// csvOut, when non-empty, receives one CSV file per figure.
var csvOut string

// writeCSV writes rows (first row = header) to name.csv under csvOut.
func writeCSV(name string, rows [][]string) {
	if csvOut == "" {
		return
	}
	f, err := os.Create(filepath.Join(csvOut, name+".csv"))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		fatal(err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fatal(err)
	}
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func u(v uint64) string   { return strconv.FormatUint(v, 10) }

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table1() {
	header("Table 1: Area and power overhead of dTDMA bus (90 nm)")
	fmt.Printf("%-34s %12s %14s\n", "Component", "Power", "Area")
	for _, c := range power.Table1() {
		fmt.Printf("%-34s %9.5f mW %11.8f mm2\n", c.Name, c.PowerMW, c.AreaMM2)
	}
}

func table2() {
	header("Table 2: Inter-wafer wiring area vs via pitch")
	fmt.Printf("Bus: %d bits data + %d control wires (4 layers)\n",
		power.BusDataBits, power.PillarWires(4)-power.BusDataBits)
	fmt.Printf("%-12s %16s %22s\n", "Via pitch", "Pillar area", "Overhead vs router")
	for _, pitch := range power.Table2Pitches {
		fmt.Printf("%9.1f um %12.0f um2 %21.3f%%\n",
			pitch, power.PillarAreaUM2(pitch), 100*power.PillarAreaOverheadVsRouter(pitch))
	}
}

func table3() {
	header("Table 3: Temperature profile of CPU placement configurations")
	rows, err := nim.ThermalTable3()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-24s %18s %18s %18s\n", "Configuration", "Peak C (paper)", "Avg C (paper)", "Min C (paper)")
	csvRows := [][]string{{"configuration", "peak_c", "paper_peak_c", "avg_c", "paper_avg_c", "min_c", "paper_min_c"}}
	for _, r := range rows {
		fmt.Printf("%-24s %8.2f (%7.2f) %8.2f (%7.2f) %8.2f (%7.2f)\n",
			r.Name, r.Profile.PeakC, r.PaperPeakC, r.Profile.AvgC, r.PaperAvgC, r.Profile.MinC, r.PaperMinC)
		csvRows = append(csvRows, []string{r.Name,
			f1(r.Profile.PeakC), f1(r.PaperPeakC),
			f1(r.Profile.AvgC), f1(r.PaperAvgC),
			f1(r.Profile.MinC), f1(r.PaperMinC)})
	}
	writeCSV("table3_thermal", csvRows)
}

func table4() {
	header("Table 4: Default system configuration")
	c := nim.DefaultConfig(nim.CMPDNUCA3D)
	top, err := config.NewTopology(c)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Processors:      %d, issue width 1, in-order\n", c.NumCPUs)
	fmt.Printf("L1 (split I/D):  %d KB, %d-way, 64 B lines, %d-cycle, write-through\n",
		c.L1Sets*c.L1Ways*64/1024, c.L1Ways, c.L1HitCycles)
	fmt.Printf("L2 (unified):    %d MB (%dx%d KB), %d-way, %d B lines, %d-cycle bank access\n",
		c.L2.TotalBytes()>>20, c.L2.TotalBanks(), c.L2.BankBytes()>>10,
		c.L2.Ways, c.L2.LineBytes, c.L2BankCycles)
	fmt.Printf("Tag array:       per cluster, %d-cycle access\n", c.TagCycles)
	fmt.Printf("Memory:          %d-cycle latency\n", c.MemoryCycles)
	fmt.Printf("Layers: %d  Pillars: %d  Mesh: %dx%d per layer\n",
		c.Layers, c.NumPillars, top.Dim.Width, top.Dim.Height)
	fmt.Printf("Routing: dimension-order, wormhole, 128-bit flits, 1-cycle routers\n")
}

func table5() {
	header("Table 5: Benchmarks")
	fmt.Printf("%-10s %22s %22s %14s\n", "Benchmark", "Fastforward (Mcyc)", "L2 transactions", "L1 miss rate")
	for _, p := range trace.Profiles(8) {
		fmt.Printf("%-10s %22d %22.0f %13.2f%%\n",
			p.Name, p.FastForwardMCycles, p.L2TransactionsM*1e6, 100*p.L1MissRate)
	}
}

func figures131415(names []string, opt nim.Options) {
	header("Figures 13/14/15: L2 hit latency, migrations, IPC under the four schemes")
	// One job per benchmark x scheme; the sweep runner fans them out and
	// hands results back in input order, so the tables print identically
	// at any -parallel width.
	schemes := nim.Schemes()
	var jobs []nim.SweepJob
	for _, b := range names {
		for _, s := range schemes {
			jobs = append(jobs, nim.NewSweepJob(nim.DefaultConfig(s), b, opt))
		}
	}
	res := sweep(jobs, opt)
	var rows []schemeRow
	for i, b := range names {
		m := make(map[nim.Scheme]nim.Results, len(schemes))
		for j, s := range schemes {
			m[s] = res[i*len(schemes)+j]
		}
		rows = append(rows, schemeRow{b, m})
	}

	fmt.Println("\nFigure 13: average L2 hit latency (cycles)")
	printSchemeTable(rows, func(r nim.Results) string { return fmt.Sprintf("%8.1f", r.AvgL2HitLatency) })
	csvRows := [][]string{{"benchmark", "cmp-dnuca", "cmp-dnuca-2d", "cmp-snuca-3d", "cmp-dnuca-3d"}}
	csvIPC := [][]string{{"benchmark", "cmp-dnuca", "cmp-dnuca-2d", "cmp-snuca-3d", "cmp-dnuca-3d"}}
	csvMig := [][]string{{"benchmark", "cmp-dnuca", "cmp-dnuca-2d", "cmp-dnuca-3d"}}
	for _, r := range rows {
		csvRows = append(csvRows, []string{r.bench,
			f1(r.results[nim.CMPDNUCA].AvgL2HitLatency), f1(r.results[nim.CMPDNUCA2D].AvgL2HitLatency),
			f1(r.results[nim.CMPSNUCA3D].AvgL2HitLatency), f1(r.results[nim.CMPDNUCA3D].AvgL2HitLatency)})
		csvIPC = append(csvIPC, []string{r.bench,
			f1(r.results[nim.CMPDNUCA].IPC), f1(r.results[nim.CMPDNUCA2D].IPC),
			f1(r.results[nim.CMPSNUCA3D].IPC), f1(r.results[nim.CMPDNUCA3D].IPC)})
		csvMig = append(csvMig, []string{r.bench,
			u(r.results[nim.CMPDNUCA].Migrations), u(r.results[nim.CMPDNUCA2D].Migrations),
			u(r.results[nim.CMPDNUCA3D].Migrations)})
	}
	writeCSV("figure13_l2_hit_latency", csvRows)
	writeCSV("figure14_migrations", csvMig)
	writeCSV("figure15_ipc", csvIPC)

	fmt.Println("\nFigure 14: block migrations, normalized to CMP-DNUCA-2D")
	printSchemeTableSel(rows, []nim.Scheme{nim.CMPDNUCA, nim.CMPDNUCA3D}, func(res map[nim.Scheme]nim.Results, s nim.Scheme) string {
		base := float64(res[nim.CMPDNUCA2D].Migrations)
		if base == 0 {
			return fmt.Sprintf("%8s", "n/a")
		}
		return fmt.Sprintf("%8.2f", float64(res[s].Migrations)/base)
	})

	fmt.Println("\nFigure 15: IPC")
	printSchemeTable(rows, func(r nim.Results) string { return fmt.Sprintf("%8.3f", r.IPC) })

	// The abstract's headline numbers for this run.
	var d2, s3, d3 float64
	var n int
	for _, r := range rows {
		d2 += r.results[nim.CMPDNUCA2D].AvgL2HitLatency
		s3 += r.results[nim.CMPSNUCA3D].AvgL2HitLatency
		d3 += r.results[nim.CMPDNUCA3D].AvgL2HitLatency
		n++
	}
	fmt.Printf("\nAverages over %d benchmarks: DNUCA-2D %.1f, SNUCA-3D %.1f (-%.1f), DNUCA-3D %.1f (-%.1f more)\n",
		n, d2/float64(n), s3/float64(n), (d2-s3)/float64(n), d3/float64(n), (s3-d3)/float64(n))
	fmt.Printf("(paper: SNUCA-3D ~10 cycles below DNUCA-2D; DNUCA-3D ~7 below SNUCA-3D)\n")
}

type schemeRow struct {
	bench   string
	results map[nim.Scheme]nim.Results
}

func printSchemeTable(rows []schemeRow, cell func(nim.Results) string) {
	fmt.Printf("%-10s", "")
	for _, s := range nim.Schemes() {
		fmt.Printf(" %14s", s)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", r.bench)
		for _, s := range nim.Schemes() {
			fmt.Printf(" %14s", cell(r.results[s]))
		}
		fmt.Println()
	}
}

func printSchemeTableSel(rows []schemeRow, schemes []nim.Scheme, cell func(map[nim.Scheme]nim.Results, nim.Scheme) string) {
	fmt.Printf("%-10s", "")
	for _, s := range schemes {
		fmt.Printf(" %14s", s)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", r.bench)
		for _, s := range schemes {
			fmt.Printf(" %14s", cell(r.results, s))
		}
		fmt.Println()
	}
}

// figure16Benches are the paper's four representative benchmarks: art and
// galgel (low L1 miss rates), mgrid and swim (high).
var figure16Benches = []string{"art", "galgel", "mgrid", "swim"}

func figure16(names []string, opt nim.Options) {
	header("Figure 16: L2 hit latency vs cache size (16/32/64 MB)")
	use := intersect(names, figure16Benches)
	sizes := []int{16, 32, 64}
	var jobs []nim.SweepJob
	for _, b := range use {
		for _, mb := range sizes {
			for _, s := range []nim.Scheme{nim.CMPDNUCA2D, nim.CMPDNUCA3D} {
				cfg, err := nim.DefaultConfig(s).WithL2Size(mb)
				if err != nil {
					fatal(err)
				}
				jobs = append(jobs, nim.NewSweepJob(cfg, b, opt))
			}
		}
	}
	res := sweep(jobs, opt)
	fmt.Printf("%-10s %6s %14s %14s\n", "Benchmark", "Size", "CMP-DNUCA-2D", "CMP-DNUCA-3D")
	csvRows := [][]string{{"benchmark", "mb", "cmp-dnuca-2d", "cmp-dnuca-3d"}}
	for i, b := range use {
		for j, mb := range sizes {
			r2 := res[(i*len(sizes)+j)*2]
			r3 := res[(i*len(sizes)+j)*2+1]
			fmt.Printf("%-10s %4dMB %14.1f %14.1f\n", b, mb, r2.AvgL2HitLatency, r3.AvgL2HitLatency)
			csvRows = append(csvRows, []string{b, strconv.Itoa(mb), f1(r2.AvgL2HitLatency), f1(r3.AvgL2HitLatency)})
		}
	}
	writeCSV("figure16_cache_size", csvRows)
	fmt.Println("(paper: latency grows ~7 cycles per doubling in 2D vs ~5 in 3D)")
}

func figure17(names []string, opt nim.Options) {
	header("Figure 17: impact of the number of pillars (CMP-DNUCA-3D)")
	use := intersect(names, figure16Benches)
	pillars := []int{8, 4, 2}
	var jobs []nim.SweepJob
	for _, b := range use {
		for _, p := range pillars {
			cfg := nim.DefaultConfig(nim.CMPDNUCA3D)
			cfg.NumPillars = p
			jobs = append(jobs, nim.NewSweepJob(cfg, b, opt))
		}
	}
	res := sweep(jobs, opt)
	fmt.Printf("%-10s %10s %10s %10s\n", "Benchmark", "8 pillars", "4 pillars", "2 pillars")
	csvRows := [][]string{{"benchmark", "pillars8", "pillars4", "pillars2"}}
	for i, b := range use {
		fmt.Printf("%-10s", b)
		row := []string{b}
		for j := range pillars {
			r := res[i*len(pillars)+j]
			fmt.Printf(" %9.1f", r.AvgL2HitLatency)
			row = append(row, f1(r.AvgL2HitLatency))
		}
		fmt.Println()
		csvRows = append(csvRows, row)
	}
	writeCSV("figure17_pillars", csvRows)
	fmt.Println("(paper: moving from 8 to 2 pillars adds 1..7 cycles)")
}

func figure18(names []string, opt nim.Options) {
	header("Figure 18: impact of the number of layers (CMP-SNUCA-3D)")
	use := intersect(names, figure16Benches)
	layers := []int{2, 4}
	var jobs []nim.SweepJob
	for _, b := range use {
		for _, l := range layers {
			cfg := nim.DefaultConfig(nim.CMPSNUCA3D)
			cfg.Layers = l
			jobs = append(jobs, nim.NewSweepJob(cfg, b, opt))
		}
	}
	res := sweep(jobs, opt)
	fmt.Printf("%-10s %10s %10s\n", "Benchmark", "2 layers", "4 layers")
	csvRows := [][]string{{"benchmark", "layers2", "layers4"}}
	for i, b := range use {
		fmt.Printf("%-10s", b)
		row := []string{b}
		for j := range layers {
			r := res[i*len(layers)+j]
			fmt.Printf(" %9.1f", r.AvgL2HitLatency)
			row = append(row, f1(r.AvgL2HitLatency))
		}
		fmt.Println()
		csvRows = append(csvRows, row)
	}
	writeCSV("figure18_layers", csvRows)
	fmt.Println("(paper: 4 layers reduce L2 latency by 3..8 cycles over 2)")
}

// confidence repeats the scheme comparison across seeds and reports the
// spread, quantifying how much of each figure is signal versus run noise.
func confidence(names []string, opt nim.Options, seeds int) {
	header(fmt.Sprintf("Confidence: Figure 13 across %d seeds (mean +/- stddev)", seeds))
	fmt.Printf("%-10s", "")
	for _, s := range nim.Schemes() {
		fmt.Printf(" %18s", s)
	}
	fmt.Println()
	for _, b := range names {
		fmt.Printf("%-10s", b)
		for _, s := range nim.Schemes() {
			rep, err := nim.RunSchemeRepeated(s, b, opt, seeds)
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %11.1f+-%-5.2f", rep.Latency.Mean, rep.Latency.StdDev)
		}
		fmt.Println()
	}
}

// cpuScaling sweeps the core count with one pillar per core — the scaling
// direction the paper's conclusion points toward.
func cpuScaling(opt nim.Options) {
	header("Scaling: CPU count (one pillar per core, CMP-DNUCA-3D vs CMP-SNUCA-3D)")
	fmt.Printf("%-8s %14s %14s\n", "cores", "CMP-SNUCA-3D", "CMP-DNUCA-3D")
	counts := []int{4, 8, 16}
	sn, err := nim.CPUCountSweep(nim.CMPSNUCA3D, "swim", counts, opt)
	if err != nil {
		fatal(err)
	}
	dn, err := nim.CPUCountSweep(nim.CMPDNUCA3D, "swim", counts, opt)
	if err != nil {
		fatal(err)
	}
	for i, n := range counts {
		fmt.Printf("%-8d %11.1f cy %11.1f cy\n", n, sn[i].AvgL2HitLatency, dn[i].AvgL2HitLatency)
	}
}

// ablations runs the design-choice studies beyond the paper's figures.
func ablations(opt nim.Options) {
	header("Ablations: the design choices behind the architecture")

	bus, router, err := nim.VerticalAblation("mgrid", 4, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("vertical interconnect (4 layers, SNUCA):  dTDMA bus %.1f cy,  7-port routers %.1f cy\n",
		bus.AvgL2HitLatency, router.AvgL2HitLatency)

	one, four, err := nim.RouterPipelineAblation("swim", opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("router pipeline (DNUCA-3D):               single-stage %.1f cy,  four-stage %.1f cy\n",
		one.AvgL2HitLatency, four.AvgL2HitLatency)

	twoStep, bcast, err := nim.SearchPolicyAblation("art", opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("search policy (DNUCA-3D):                 two-step %.1f cy / %d probes,  broadcast %.1f cy / %d probes\n",
		twoStep.AvgL2HitLatency, twoStep.ProbesSent, bcast.AvgL2HitLatency, bcast.ProbesSent)

	plain, vr, err := nim.ReplicationAblation("equake", opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("victim replication (SNUCA-3D):            plain %.1f cy,  replicated %.1f cy (%d replicas, %d hits)\n",
		plain.AvgL2HitLatency, vr.AvgL2HitLatency, vr.Replications, vr.ReplicaHits)

	ths := []int{1, 2, 4, 8}
	rs, err := nim.MigrationThresholdSweep("swim", ths, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("migration threshold (DNUCA-3D, swim):    ")
	for i, th := range ths {
		fmt.Printf("  t=%d: %.1f cy/%d mig", th, rs[i].AvgL2HitLatency, rs[i].Migrations)
	}
	fmt.Println()

	offs, stack, err := nim.StackedVsOffset("mgrid", opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("CPU stacking (DNUCA-3D, network only):    offset %.1f cy,  stacked %.1f cy\n",
		offs.AvgL2HitLatency, stack.AvgL2HitLatency)

	idealTag, singleTag, err := nim.TagPortAblation("mgrid", opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tag-array ports (SNUCA-3D):               unlimited %.1f cy,  single-ported %.1f cy\n",
		idealTag.AvgL2HitLatency, singleTag.AvgL2HitLatency)

	skipOn, skipOff, err := nim.ClusterSkipAblation("swim", opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("CPU-cluster skip in migration:            on %.1f cy,  off %.1f cy\n",
		skipOn.AvgL2HitLatency, skipOff.AvgL2HitLatency)
}

// breakdowns decomposes each scheme's average L2 latency into the span
// components (search rounds, network queue vs link, pillar-bus wait vs
// transfer, tag, bank, DRAM), making visible which component each scheme
// shrinks — the mechanism behind Figure 13 and the Section 6 discussion.
func breakdowns(names []string, opt nim.Options) {
	bench := names[0]
	for _, n := range names {
		if n == "mgrid" {
			bench = n
			break
		}
	}
	header(fmt.Sprintf("Latency decomposition: where each scheme spends L2 cycles (%s)", bench))
	schemes := nim.Schemes()
	var jobs []nim.SweepJob
	for _, s := range schemes {
		j := nim.NewSweepJob(nim.DefaultConfig(s), bench, opt)
		j.RecordSpans = true
		jobs = append(jobs, j)
	}
	res := sweep(jobs, opt)

	class := func(title, csvName string, pick func(b *nim.LatencyBreakdown) ([]nim.ComponentStat, float64)) {
		fmt.Printf("\n%s (mean cycles, share of total)\n", title)
		fmt.Printf("%-14s", "component")
		for _, s := range schemes {
			fmt.Printf(" %14s", s)
		}
		fmt.Println()
		comps, _ := pick(res[0].Breakdown)
		csvRows := [][]string{{"component", "cmp-dnuca", "cmp-dnuca-2d", "cmp-snuca-3d", "cmp-dnuca-3d"}}
		for c := range comps {
			if comps[c].Name == "l1" {
				continue // pre-issue, identical everywhere, not in the total
			}
			any := false
			for _, r := range res {
				cs, _ := pick(r.Breakdown)
				any = any || cs[c].Mean != 0
			}
			if !any {
				continue
			}
			fmt.Printf("%-14s", comps[c].Name)
			row := []string{comps[c].Name}
			for _, r := range res {
				cs, _ := pick(r.Breakdown)
				fmt.Printf(" %9.1f %3.0f%%", cs[c].Mean, 100*cs[c].Share)
				row = append(row, f1(cs[c].Mean))
			}
			fmt.Println()
			csvRows = append(csvRows, row)
		}
		fmt.Printf("%-14s", "total")
		totals := []string{"total"}
		for _, r := range res {
			_, total := pick(r.Breakdown)
			fmt.Printf(" %9.1f     ", total)
			totals = append(totals, f1(total))
		}
		fmt.Println()
		writeCSV(csvName, append(csvRows, totals))
	}
	class("L2 hits", "breakdown_hits", func(b *nim.LatencyBreakdown) ([]nim.ComponentStat, float64) {
		return b.Hits.Components, b.Hits.MeanTotal
	})
	class("L2 misses", "breakdown_misses", func(b *nim.LatencyBreakdown) ([]nim.ComponentStat, float64) {
		return b.Misses.Components, b.Misses.MeanTotal
	})
	fmt.Println("(component sums equal the measured end-to-end means; the 3D schemes' savings\n concentrate in the request/reply link components, per the paper's Section 6)")
}

// thermalStudy runs the transient thermal pipeline across the four schemes
// plus a vertically-stacked DNUCA-3D variant, all on mgrid (the highest-
// traffic benchmark), and tabulates how the placements diverge dynamically:
// the stacked variant piles CPU heat into vertical columns and runs away
// from the offset placement even though both dissipate the same energy —
// the transient counterpart of Table 3's steady-state gap.
func thermalStudy(opt nim.Options) {
	header("Thermal: transient peak temperature under activity-driven power (mgrid)")
	type variant struct {
		name string
		cfg  nim.Config
	}
	stacked := nim.DefaultConfig(nim.CMPDNUCA3D)
	stacked.StackCPUs = true
	variants := []variant{
		{"cmp-dnuca", nim.DefaultConfig(nim.CMPDNUCA)},
		{"cmp-dnuca-2d", nim.DefaultConfig(nim.CMPDNUCA2D)},
		{"cmp-snuca-3d", nim.DefaultConfig(nim.CMPSNUCA3D)},
		{"cmp-dnuca-3d", nim.DefaultConfig(nim.CMPDNUCA3D)},
		{"dnuca-3d-stacked", stacked},
	}
	jobs := make([]nim.SweepJob, len(variants))
	for i, v := range variants {
		j := nim.NewSweepJob(v.cfg, "mgrid", opt)
		j.ThermalInterval = 1000
		jobs[i] = j
	}
	res := sweep(jobs, opt)

	fmt.Printf("%-18s %8s %10s %9s %9s %8s %8s\n",
		"", "peak C", "@cycle", "final C", "grad C", ">85C %", "dyn W")
	csvRows := [][]string{{"variant", "peak_c", "peak_cycle", "final_peak_c", "final_mean_c", "gradient_c", "pct_above_85c", "avg_dyn_power_w"}}
	for i, v := range variants {
		t := res[i].Thermal
		if t == nil {
			fmt.Printf("%-18s %8s\n", v.name, "n/a")
			continue
		}
		pctAbove := 0.0
		if t.Cycles > 0 {
			pctAbove = 100 * float64(t.CyclesAboveThreshold) / float64(t.Cycles)
		}
		fmt.Printf("%-18s %8.2f %10d %9.2f %9.2f %8.1f %8.2f\n",
			v.name, t.PeakC, t.PeakCycle, t.FinalPeakC, t.GradientC, pctAbove, t.AvgPowerW)
		csvRows = append(csvRows, []string{v.name, f1(t.PeakC), u(t.PeakCycle),
			f1(t.FinalPeakC), f1(t.FinalMeanC), f1(t.GradientC), f1(pctAbove), f1(t.AvgPowerW)})
	}
	writeCSV("thermal_transient", csvRows)
	fmt.Println("(same workload, same charged energy: the stacked placement's peak runs away\n from the offset placement's — Table 3's steady-state gap, reproduced dynamically)")
}

// dtmStudy runs the DTM policy matrix on the two configurations the
// transient study shows running hottest — CMP-DNUCA-3D and its vertically
// stacked variant, both on mgrid — and tabulates what each actuator buys
// and costs: peak temperature (and its delta against the unmanaged run),
// time above 85 C, and the performance price in average L2 hit latency and
// IPC, next to the per-actuator engagement counts. Duty-cycling is the
// policy that moves peak temperature (it sheds the cores' 8 W budgets, the
// dominant heat source); veto, drowsy, and reroute act on the ~0.06 W/cell
// background and the traffic pattern, so their thermal effect is small —
// they are documented as latency/energy levers, not peak-temperature ones.
func dtmStudy(opt nim.Options) {
	header("DTM: policy matrix on the hot configurations (mgrid, trip 85 C)")
	type variant struct {
		name string
		cfg  nim.Config
	}
	stacked := nim.DefaultConfig(nim.CMPDNUCA3D)
	stacked.StackCPUs = true
	variants := []variant{
		{"cmp-dnuca-3d", nim.DefaultConfig(nim.CMPDNUCA3D)},
		{"dnuca-3d-stacked", stacked},
	}
	policies := []string{"off", "veto", "drowsy", "duty", "reroute", "all"}

	var jobs []nim.SweepJob
	for _, v := range variants {
		for _, pol := range policies {
			cfg := v.cfg
			if pol != "off" {
				cfg.DTMPolicy = pol
			}
			j := nim.NewSweepJob(cfg, "mgrid", opt)
			j.ThermalInterval = 1000
			jobs = append(jobs, j)
		}
	}
	res := sweep(jobs, opt)

	fmt.Printf("%-18s %-8s %8s %8s %8s %9s %7s %8s %8s %8s %8s\n",
		"", "policy", "peak C", "dPeak", ">85C %", "hit lat", "IPC", "vetoes", "wakeups", "stalls", "diverts")
	csvRows := [][]string{{"variant", "policy", "peak_c", "delta_peak_c", "pct_above_85c",
		"avg_hit_lat", "ipc", "migration_vetoes", "bank_wakeups", "throttle_stalls", "pillar_diversions"}}
	for vi, v := range variants {
		basePeak := 0.0
		for pi, pol := range policies {
			r := res[vi*len(policies)+pi]
			t := r.Thermal
			if t == nil {
				fmt.Printf("%-18s %-8s %8s\n", v.name, pol, "n/a")
				continue
			}
			if pol == "off" {
				basePeak = t.PeakC
			}
			pctAbove := 0.0
			if t.Cycles > 0 {
				pctAbove = 100 * float64(t.CyclesAboveThreshold) / float64(t.Cycles)
			}
			var vetoes, wakeups, stalls, diverts uint64
			if d := r.DTM; d != nil {
				vetoes, wakeups, stalls, diverts = d.MigrationVetoes, d.BankWakeups, d.ThrottleStalls, d.PillarDiversions
			}
			name := ""
			if pi == 0 {
				name = v.name
			}
			fmt.Printf("%-18s %-8s %8.2f %8.2f %8.1f %9.1f %7.3f %8d %8d %8d %8d\n",
				name, pol, t.PeakC, t.PeakC-basePeak, pctAbove,
				r.AvgL2HitLatency, r.IPC, vetoes, wakeups, stalls, diverts)
			csvRows = append(csvRows, []string{v.name, pol, f1(t.PeakC), f1(t.PeakC - basePeak),
				f1(pctAbove), f1(r.AvgL2HitLatency), f1(r.IPC), u(vetoes), u(wakeups), u(stalls), u(diverts)})
		}
	}
	writeCSV("dtm_matrix", csvRows)
	fmt.Println("(duty-cycling sheds the cores' 8 W budgets and is the policy that cuts the\n peak; veto/drowsy/reroute buy latency headroom and leakage, not degrees)")
}

// profileStudy shows where the host's wall-clock goes in one simulation:
// it runs mgrid on CMP-DNUCA-3D — offset and CPU-stacked placements —
// with the host profiler attached and tabulates per-phase shares of loop
// time. The numbers are wall-clock on this host; the simulated Results
// are bit-identical to unprofiled runs (the profiler observes the
// simulator, not the chip).
func profileStudy(opt nim.Options) {
	header("Host profile: phase dominance (mgrid, CMP-DNUCA-3D)")
	stacked := nim.DefaultConfig(nim.CMPDNUCA3D)
	stacked.Layers = 4
	stacked.StackCPUs = true
	modes := []struct {
		name string
		cfg  nim.Config
	}{
		{"offset", nim.DefaultConfig(nim.CMPDNUCA3D)},
		{"stacked", stacked},
	}
	fmt.Printf("%-18s %8s %6s %7s %6s %7s %6s\n",
		"", "Mcyc/s", "cpu%", "proto%", "net%", "engine%", "rest%")
	csvRows := [][]string{{"mode", "mcycles_per_sec", "cpu_share", "protocol_share",
		"net_share", "engine_share", "rest_share"}}
	for _, m := range modes {
		bench, ok := nim.BenchmarkByName("mgrid", m.cfg.NumCPUs)
		if !ok {
			fatal(fmt.Errorf("benchmark mgrid not found"))
		}
		s, err := nim.NewSimulation(m.cfg, bench, opt.Seed)
		if err != nil {
			fatal(err)
		}
		s.Warm()
		s.AttachProfile()
		s.Start()
		s.Run(opt.WarmCycles)
		s.ResetStats()
		s.Run(opt.MeasureCycles)
		r := s.Results()
		if r.Profile == nil {
			fatal(fmt.Errorf("%s: no profile attached", m.name))
		}
		share := func(names ...string) float64 {
			var sum float64
			for _, ph := range r.Profile.Phases {
				for _, n := range names {
					if ph.Phase == n {
						sum += ph.Share
					}
				}
			}
			return sum
		}
		cpu := share("cpu")
		proto := share("protocol")
		net := share("net-serial")
		engine := share("engine")
		rest := share("thermal", "sampler", "other")
		fmt.Printf("%-18s %8.2f %5.1f%% %6.1f%% %5.1f%% %6.1f%% %5.1f%%\n",
			m.name, r.Profile.CyclesPerSec/1e6,
			100*cpu, 100*proto, 100*net, 100*engine, 100*rest)
		csvRows = append(csvRows, []string{m.name,
			f1(r.Profile.CyclesPerSec / 1e6), f1(cpu), f1(proto), f1(net), f1(engine), f1(rest)})
	}
	writeCSV("profile_phases", csvRows)
	fmt.Println("(shares are fractions of Engine.Run wall time and sum to ~100%)")
}

func intersect(names, allowed []string) []string {
	set := map[string]bool{}
	for _, a := range allowed {
		set[a] = true
	}
	var out []string
	for _, n := range names {
		if set[n] {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return allowed
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
