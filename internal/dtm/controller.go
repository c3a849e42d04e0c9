package dtm

import (
	"repro/internal/geom"
	"repro/internal/thermal"
)

// DefaultTripC is the trip temperature when Options.TripC is zero — the
// conventional 85 C junction throttling point.
const DefaultTripC = 85.0

// DefaultHysteresisC is the release margin when Options.HysteresisC is
// zero: a tripped cell stays managed until it cools this far below the
// trip point, so cells oscillating across the threshold do not make the
// actuators flap every thermal step.
const DefaultHysteresisC = 2.0

// PillarPenaltyHops is how many extra in-plane hops a hot pillar column
// appears to cost during pillar selection under PolicyReroute. The value
// diverts traffic whenever a cool pillar is at most this much farther,
// while still using a hot pillar when every detour costs more — a bias,
// not a prohibition, so pathological placements cannot starve traffic of
// the only usable column.
const PillarPenaltyHops = 4

// Options carries the Controller's calibration. Zero values select the
// documented defaults. The leakage, wakeup, and clock numbers are passed
// in by the caller (internal/power is the single calibration point; see
// power.DrowsyLeakageFraction) to keep this package free of model
// dependencies.
type Options struct {
	// TripC is the trip temperature in C (0 selects DefaultTripC).
	TripC float64
	// HysteresisC is the release margin below the trip point
	// (0 selects DefaultHysteresisC).
	HysteresisC float64
	// DutyOn/DutyPeriod is the throttled issue pattern: a hot core issues
	// on DutyOn of every DutyPeriod front-end slots (0/0 selects 1/4).
	DutyOn, DutyPeriod int
	// CellLeakW is the per-cell background (leakage) power the thermal
	// grid charges, the quantity drowsy mode scales down.
	CellLeakW float64
	// DrowsyLeakFrac is the fraction of CellLeakW a drowsy bank retains.
	DrowsyLeakFrac float64
	// WakeupCycles is the extra latency of an access to a drowsy bank.
	WakeupCycles uint64
	// ClockHz converts cycle spans to seconds for the leakage-saved
	// energy accounting.
	ClockHz float64
}

// Controller is the DTM policy engine: it tracks the per-cell hot mask
// derived from the thermal grid at every step boundary and answers the
// actuators' queries. It implements obs.ThermalActor, so the thermal
// tracker both informs it (GridStepped) and lets it feed the drowsy
// leakage cut back into the next RC step (AdjustPower). One Controller
// manages one System; it is not safe for concurrent use (the simulator
// is single-threaded per run).
type Controller struct {
	dim    geom.Dim
	policy Policy

	tripC    float64
	releaseC float64

	dutyOn, dutyPeriod int

	cellLeakW      float64
	drowsyLeakFrac float64
	wakeupCycles   uint64
	clockHz        float64

	// hot is the per-cell managed state (trip/release hysteresis); colHot
	// marks in-plane columns with at least one hot cell on any layer (the
	// pillar-selection mask).
	hot    []bool
	colHot []bool

	// cpus holds the registered cores' cell indices in core order;
	// cpuHot/cpuSlot are the duty-cycling state per core.
	cpus    []int
	cpuHot  []bool
	cpuSlot []uint32

	stats  Report
	primed bool
}

// NewController builds a controller for a chip of the given dimensions.
// Register the core positions with AddCPU before the first thermal step.
func NewController(dim geom.Dim, policy Policy, opt Options) *Controller {
	if opt.TripC == 0 {
		opt.TripC = DefaultTripC
	}
	if opt.HysteresisC == 0 {
		opt.HysteresisC = DefaultHysteresisC
	}
	if opt.DutyOn == 0 && opt.DutyPeriod == 0 {
		opt.DutyOn, opt.DutyPeriod = 1, 4
	}
	return &Controller{
		dim:            dim,
		policy:         policy,
		tripC:          opt.TripC,
		releaseC:       opt.TripC - opt.HysteresisC,
		dutyOn:         opt.DutyOn,
		dutyPeriod:     opt.DutyPeriod,
		cellLeakW:      opt.CellLeakW,
		drowsyLeakFrac: opt.DrowsyLeakFrac,
		wakeupCycles:   opt.WakeupCycles,
		clockHz:        opt.ClockHz,
		hot:            make([]bool, dim.Nodes()),
		colHot:         make([]bool, dim.NodesPerLayer()),
	}
}

// AddCPU registers one core's cell, in core order; DutyStall indexes
// cores by this registration order.
func (c *Controller) AddCPU(pos geom.Coord) {
	c.cpus = append(c.cpus, c.dim.Index(pos))
	c.cpuHot = append(c.cpuHot, false)
	c.cpuSlot = append(c.cpuSlot, 0)
}

// Policy returns the enabled actuator set.
func (c *Controller) Policy() Policy { return c.policy }

// TripC returns the trip temperature.
func (c *Controller) TripC() float64 { return c.tripC }

// GridStepped implements obs.ThermalActor: after every RC step it
// re-derives the hot mask from the freshly stepped, cycle-stamped grid
// temperatures. All actuator decisions until the next step are pure
// functions of this mask, which keeps managed runs deterministic.
func (c *Controller) GridStepped(cycle uint64, g *thermal.Grid) {
	temps := g.Temps()
	hotCells := uint64(0)
	for i, t := range temps {
		switch {
		case !c.hot[i] && t >= c.tripC:
			c.hot[i] = true
			c.stats.TripEngagements++
			if c.stats.FirstTripCycle == 0 {
				c.stats.FirstTripCycle = cycle
			}
		case c.hot[i] && t < c.releaseC:
			c.hot[i] = false
		}
		if c.hot[i] {
			hotCells++
		}
		if !c.primed || t > c.stats.PeakC {
			c.stats.PeakC = t
		}
	}
	c.primed = true
	c.stats.HotCells = hotCells
	c.stats.HotCellSteps += hotCells
	c.stats.Steps++

	per := c.dim.NodesPerLayer()
	for i := range c.colHot {
		c.colHot[i] = false
	}
	for l := 0; l < c.dim.Layers; l++ {
		base := l * per
		for i := 0; i < per; i++ {
			if c.hot[base+i] {
				c.colHot[i] = true
			}
		}
	}
	for k, cell := range c.cpus {
		c.cpuHot[k] = c.hot[cell]
	}
}

// AdjustPower implements obs.ThermalActor: before every RC step it cuts
// the drowsy banks' leakage from the window's power map (cycles is the
// window's span). A bank is drowsy exactly while its cell is hot — the
// emergency response — so the cut is a pure function of the same mask
// BankWakeup charges wakeups from. Every mesh cell hosts a bank (cores
// are co-located with their cluster's banks), so the cut applies to all
// hot cells; on a core's cell the CellLeakW background it scales is
// dwarfed by the core's dynamic power, so the approximation of treating
// the whole cell background as bank leakage costs nothing.
func (c *Controller) AdjustPower(cycles uint64, powerW []float64) {
	if !c.policy.Has(PolicyDrowsy) {
		return
	}
	cut := (1 - c.drowsyLeakFrac) * c.cellLeakW
	if cut <= 0 {
		return
	}
	drowsy := 0
	for i, h := range c.hot {
		if h {
			powerW[i] -= cut
			drowsy++
		}
	}
	if drowsy > 0 && c.clockHz > 0 {
		c.stats.DrowsyLeakSavedPJ += float64(drowsy) * cut * float64(cycles) / c.clockHz * 1e12
	}
}

// VetoMigration reports whether a migration step toward the cluster
// anchored at target must be blocked, counting the engagement.
func (c *Controller) VetoMigration(target geom.Coord) bool {
	if !c.policy.Has(PolicyMigrationVeto) || !c.hot[c.dim.Index(target)] {
		return false
	}
	c.stats.MigrationVetoes++
	return true
}

// BankWakeup returns the extra cycles an access to the bank at the given
// cell must pay (its drowsy wakeup), counting the wakeup. Zero when the
// drowsy policy is off or the bank's cell is cool.
func (c *Controller) BankWakeup(bank geom.Coord) uint64 {
	if !c.policy.Has(PolicyDrowsy) || !c.hot[c.dim.Index(bank)] {
		return 0
	}
	c.stats.BankWakeups++
	c.stats.BankWakeupCycles += c.wakeupCycles
	return c.wakeupCycles
}

// DutyStall reports whether core cpu (AddCPU registration order) must
// stall its front end this slot: a hot core issues on only DutyOn of
// every DutyPeriod slots. Each true return is one stalled cycle.
func (c *Controller) DutyStall(cpu int) bool {
	if !c.policy.Has(PolicyDutyCycle) || !c.cpuHot[cpu] {
		return false
	}
	c.cpuSlot[cpu]++
	if int(c.cpuSlot[cpu]%uint32(c.dutyPeriod)) < c.dutyOn {
		return false
	}
	c.stats.ThrottleStalls++
	return true
}

// PillarPenalty returns the pillar-selection penalty (in hops) for the
// pillar column at in-plane position (x, y): PillarPenaltyHops when any
// cell of the column is hot, zero otherwise. Install it with the
// fabric's SetPillarPenalty only when PolicyReroute is enabled, so a
// detached fabric keeps its zero-overhead selection path.
func (c *Controller) PillarPenalty(x, y int) int {
	if c.colHot[y*c.dim.Width+x] {
		return PillarPenaltyHops
	}
	return 0
}

// NotePillarDiversion counts one cross-layer packet whose pillar choice
// the penalty changed; the fabric invokes it from pillar selection.
func (c *Controller) NotePillarDiversion() {
	c.stats.PillarDiversions++
}

// Report is the run-level DTM summary (core Results.DTM).
type Report struct {
	// Policy, TripC, ReleaseC, DutyOn and DutyPeriod echo the active
	// configuration.
	Policy     string
	TripC      float64
	ReleaseC   float64
	DutyOn     int
	DutyPeriod int

	// Steps counts thermal-step boundaries seen; TripEngagements counts
	// cell cold->hot transitions; FirstTripCycle is the cycle of the
	// first engagement (0 when nothing ever tripped); HotCells is the
	// currently managed cell count and HotCellSteps its integral over
	// steps (cell-steps spent under management).
	Steps           uint64
	TripEngagements uint64
	FirstTripCycle  uint64
	HotCells        uint64
	HotCellSteps    uint64

	// PeakC is the hottest cell temperature the controller observed;
	// PeakOverTripC is its signed excess over the trip point — how far
	// the managed run still overshot (negative: stayed below trip).
	PeakC         float64
	PeakOverTripC float64

	// Per-actuator engagement counts and their direct latency cost:
	// migration steps vetoed, drowsy-bank wakeups and the cycles they
	// added, core front-end cycles stalled by duty-cycling, and
	// cross-layer packets diverted to a cooler pillar.
	MigrationVetoes  uint64
	BankWakeups      uint64
	BankWakeupCycles uint64
	ThrottleStalls   uint64
	PillarDiversions uint64

	// DrowsyLeakSavedPJ approximates the leakage energy drowsy mode cut
	// (summed per managed cell per thermal step).
	DrowsyLeakSavedPJ float64
}

// Report summarizes the run so far.
func (c *Controller) Report() *Report {
	r := c.stats
	r.Policy = c.policy.String()
	r.TripC = c.tripC
	r.ReleaseC = c.releaseC
	r.DutyOn = c.dutyOn
	r.DutyPeriod = c.dutyPeriod
	if r.Steps > 0 {
		r.PeakOverTripC = r.PeakC - c.tripC
	}
	return &r
}
