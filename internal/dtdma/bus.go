// Package dtdma implements the dynamic Time-Division Multiple Access bus
// that the paper uses as the vertical "Communication Pillar" between device
// layers (Section 3.1). The bus spans all layers and provides single-hop
// communication between any pair of layers: one flit crosses the entire
// stack per bus cycle regardless of how many layers it skips, because the
// inter-wafer distance (tens of microns) is negligible next to in-plane
// router-to-router wiring.
//
// The dTDMA arbiter eliminates the transactional character of a classic
// bus: instead of request/grant transactions it maintains a timeslot wheel
// that dynamically grows and shrinks to match the number of *active*
// clients, which makes the bus nearly 100% bandwidth efficient. With k
// layers holding pending flits, each receives every k-th slot; idle layers
// consume no slots at all. This package models that allocation exactly as a
// round-robin rotation over the currently active transmitters.
package dtdma

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/obs"
)

// txBufDepth is the pillar transmitter buffer depth in flits: one message,
// matching the router VC depth (Figure 7's output buffer).
const txBufDepth = noc.VCDepth

// tx is the per-layer transmitter: the buffer between a pillar router's
// vertical output port and the shared bus wires. Like a router VC it is
// held by one packet at a time (wormhole).
type tx struct {
	buf    [txBufDepth]noc.Flit
	head   int
	n      int
	owner  *noc.Packet
	landVC int // allocated VC at the destination layer's vertical input
}

func (t *tx) empty() bool { return t.n == 0 }
func (t *tx) full() bool  { return t.n == txBufDepth }

func (t *tx) push(f noc.Flit) {
	t.buf[(t.head+t.n)%txBufDepth] = f
	t.n++
}

func (t *tx) front() *noc.Flit { return &t.buf[t.head] }

func (t *tx) pop() noc.Flit {
	f := t.buf[t.head]
	t.head = (t.head + 1) % txBufDepth
	t.n--
	return f
}

// TxPort is the noc.Endpoint a pillar router's vertical output connects to:
// the transmitter for one layer of one bus.
type TxPort struct {
	b     *Bus
	layer int
}

// AllocVC claims the transmitter for a packet, or returns -1 if occupied.
func (p *TxPort) AllocVC(pkt *noc.Packet) int {
	t := &p.b.txs[p.layer]
	if t.owner != nil {
		return -1
	}
	t.owner = pkt
	t.landVC = -1
	return 0
}

// CanAccept reports whether the transmitter buffer has space.
func (p *TxPort) CanAccept(v int) bool { return !p.b.txs[p.layer].full() }

// Accept buffers a flit for transmission.
func (p *TxPort) Accept(f noc.Flit, v int, cycle uint64) {
	f.SetArrived(cycle)
	p.b.txs[p.layer].push(f)
	if p.b.pending == 0 && p.b.onBusy != nil {
		p.b.onBusy()
	}
	p.b.pending++
}

// Bus is one communication pillar: a b-bit dTDMA bus spanning every layer
// at a fixed in-plane position, with one transceiver per layer and a single
// centralized arbiter.
type Bus struct {
	id     int
	pos    geom.Coord // in-plane position; Layer is ignored
	layers int

	txs []tx
	// rx[i] is the vertical input port of the pillar router on layer i.
	rx []noc.Endpoint

	next    int // dTDMA rotation pointer over layers
	pending int // flits buffered across all transmitters

	// BusyCycles counts cycles in which a flit crossed the bus; TotalFlits
	// counts flits transferred. Used for utilization and energy reports.
	BusyCycles uint64
	TotalFlits uint64

	// probe, when non-nil, receives dTDMA arbitration events: slot-wheel
	// grow/shrink and per-flit bus grants. lastClients is the active-client
	// count as of the previous probed tick, for edge detection.
	probe       *obs.Probe
	lastClients int

	// onBusy/onIdle fire on the pending 0->1 and 1->0 edges, letting the
	// fabric keep a busy-bus count instead of scanning every bus.
	onBusy, onIdle func()
}

// NewBus creates a pillar bus with the given in-plane position spanning the
// given number of layers. Receivers must be attached per layer before use.
func NewBus(id int, pos geom.Coord, layers int) *Bus {
	if layers < 1 {
		panic("dtdma: bus needs at least one layer")
	}
	return &Bus{
		id:     id,
		pos:    geom.Coord{X: pos.X, Y: pos.Y},
		layers: layers,
		txs:    make([]tx, layers),
		rx:     make([]noc.Endpoint, layers),
	}
}

// ID returns the pillar's identifier.
func (b *Bus) ID() int { return b.id }

// Pos returns the pillar's in-plane position (Layer field is 0).
func (b *Bus) Pos() geom.Coord { return b.pos }

// Layers returns the number of layers the pillar spans.
func (b *Bus) Layers() int { return b.layers }

// Tx returns the transmitter endpoint for the given layer, to be wired as
// the pillar router's vertical output.
func (b *Bus) Tx(layer int) *TxPort {
	if layer < 0 || layer >= b.layers {
		panic(fmt.Sprintf("dtdma: layer %d out of range [0,%d)", layer, b.layers))
	}
	return &TxPort{b: b, layer: layer}
}

// AttachRx wires the receiver for a layer: the vertical input port of that
// layer's pillar router.
func (b *Bus) AttachRx(layer int, ep noc.Endpoint) {
	if layer < 0 || layer >= b.layers {
		panic(fmt.Sprintf("dtdma: layer %d out of range [0,%d)", layer, b.layers))
	}
	b.rx[layer] = ep
}

// SetProbe attaches (or, with nil, detaches) the observability probe. The
// bus emits EvSlotGrow/EvSlotShrink on slot-wheel resizing and one
// EvBusGrant per transferred flit carrying the transceiver pair (A = the
// transmitting layer, B = the destination layer) — the energy accountant
// charges half the flit's transfer energy at each end.
func (b *Bus) SetProbe(p *obs.Probe) { b.probe = p }

// SetBusyHooks installs the edge callbacks invoked when the bus transitions
// between empty and holding pending flits.
func (b *Bus) SetBusyHooks(onBusy, onIdle func()) {
	b.onBusy, b.onIdle = onBusy, onIdle
}

// Idle reports whether no transmitter holds flits.
func (b *Bus) Idle() bool { return b.pending == 0 }

// ActiveClients returns the number of layers with pending flits — the
// number of timeslots the dTDMA arbiter currently allocates.
func (b *Bus) ActiveClients() int {
	n := 0
	for i := range b.txs {
		if !b.txs[i].empty() {
			n++
		}
	}
	return n
}

// Tick advances the bus one cycle. The arbiter's dynamic slot wheel is
// modeled by rotating over active transmitters: the first active layer at
// or after the rotation pointer whose head flit can land transfers exactly
// one flit across the stack (single hop, any layer distance). The bus ticks
// after the routers each cycle and may forward a flit in the cycle it
// entered the transmitter: the pillar interface is pipelined with the
// crossing, reflecting the negligible inter-wafer distance that motivates
// the single-hop design.
func (b *Bus) Tick(cycle uint64) {
	if b.probe != nil {
		// The slot wheel resizes whenever the set of layers holding
		// pending flits changed since the last tick (Section 3.1's dynamic
		// timeslot allocation).
		if n := b.ActiveClients(); n != b.lastClients {
			kind := obs.EvSlotGrow
			if n < b.lastClients {
				kind = obs.EvSlotShrink
			}
			b.probe.Emit(obs.Event{
				Cycle: cycle, Kind: kind, X: b.pos.X, Y: b.pos.Y,
				ID: uint64(b.id), A: uint64(n), B: uint64(b.lastClients),
			})
			b.lastClients = n
		}
	}
	if b.pending == 0 {
		return
	}
	for i := 0; i < b.layers; i++ {
		layer := (b.next + i) % b.layers
		t := &b.txs[layer]
		if t.empty() {
			continue
		}
		f := t.front()
		if f.Arrived() > cycle {
			continue
		}
		pkt := f.Pkt
		dstLayer := pkt.Dst.Layer
		ep := b.rx[dstLayer]
		if ep == nil {
			panic(fmt.Sprintf("dtdma: bus %d has no receiver on layer %d", b.id, dstLayer))
		}
		if t.landVC < 0 {
			// The packet completes its vertical traversal this transfer;
			// promote it to phase 1 so it lands on the escape VC class.
			pkt.MarkVertical()
			t.landVC = ep.AllocVC(pkt)
			if t.landVC < 0 {
				continue // no landing VC free; try another client
			}
		}
		if !ep.CanAccept(t.landVC) {
			continue
		}
		fl := t.pop()
		b.pending--
		if b.pending == 0 && b.onIdle != nil {
			b.onIdle()
		}
		fl.Pkt.Hops++
		if sp := fl.Pkt.Span; sp != nil && (fl.Type == noc.Head || fl.Type == noc.HeadTail) {
			sp.AddBus(cycle - fl.Arrived())
		}
		if b.probe != nil {
			b.probe.Emit(obs.Event{
				Cycle: cycle, Kind: obs.EvBusGrant, X: b.pos.X, Y: b.pos.Y,
				Layer: layer, ID: uint64(b.id), A: uint64(layer), B: uint64(dstLayer),
			})
		}
		ep.Accept(fl, t.landVC, cycle)
		b.BusyCycles++
		b.TotalFlits++
		if fl.Type == noc.Tail || fl.Type == noc.HeadTail {
			t.owner = nil
			t.landVC = -1
		}
		b.next = (layer + 1) % b.layers
		return // one flit per bus per cycle
	}
}

// ControlWires returns the number of arbiter control wires for n layers:
// 3n + ceil(log2(n)), per Section 3.1.
func ControlWires(n int) int {
	if n < 1 {
		return 0
	}
	log := 0
	for v := n - 1; v > 0; v >>= 1 {
		log++
	}
	return 3*n + log
}
