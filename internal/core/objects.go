package core

import (
	"repro/internal/dtu"
	"repro/internal/kif"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/tile"
)

// VPE is a virtual processing element: the kernel's abstraction for an
// application activity, bound to exactly one PE at any point in time.
type VPE struct {
	ID   uint64
	Name string
	PE   *tile.PE

	Caps *CapTable

	// epCaps, indexed by endpoint, is the kernel's only record of which
	// capability of the VPE's own table each endpoint is activated for.
	epCaps []*Capability

	started  bool
	exited   bool
	exitCode int64
	exitSig  *sim.Signal
}

// CrashExitCode is the exit code recorded for a VPE whose PE crashed
// and was reaped by the kernel's death watchdog.
const CrashExitCode int64 = -2

// Started reports whether the VPE's program was ever started.
func (v *VPE) Started() bool { return v.started }

// Exited reports whether the VPE's program has terminated.
func (v *VPE) Exited() bool { return v.exited }

// ExitCode returns the code passed to the exit system call.
func (v *VPE) ExitCode() int64 { return v.exitCode }

// RGateObj is the kernel object of a receive gate: a message buffer
// description bound to (at most) one receive endpoint at its owner's
// PE. Receive gates cannot be delegated (the paper: they can only be
// moved after invalidating all senders), so the object stays with its
// creator.
type RGateObj struct {
	Owner    *VPE
	SlotSize int // payload slot size, excluding the DTU header
	Slots    int

	// Activation state: EP < 0 until the owner activates the gate.
	// Helpers waiting for the activation sleep on the kernel-wide
	// actSig, which VPE teardown also broadcasts so they never outlive
	// a dead owner.
	EP      int
	BufAddr int
}

// Activated reports whether the gate is bound to an endpoint.
func (r *RGateObj) Activated() bool { return r.EP >= 0 }

// SGateObj is the kernel object of a send gate: the right to send
// messages to a receive gate, with a receiver-chosen label and a credit
// limit. Send gates are freely delegable.
type SGateObj struct {
	RGate   *RGateObj
	Label   uint64
	Credits int
}

// MemObj is the kernel object of a memory capability: a region of the
// DRAM module, of a PE-external SPM, or of the VPE's own PE memory.
type MemObj struct {
	Node  noc.NodeID
	Addr  int
	Size  int
	Perms dtu.Perm

	// root marks an allocation owned by the kernel's DRAM allocator;
	// revoking the root returns the region to the free list.
	root bool

	// stable marks a region pinned by the service supervisor: revoking
	// the root does NOT return it to the free list, so its contents
	// survive the owner's crash and a restarted incarnation can adopt
	// the same region (journal recovery, docs/RECOVERY.md).
	stable bool
}

// ServiceObj represents a registered service: its name and the
// kernel's private send path to the service's control gate, created at
// service registration (the paper, §4.5.3).
type ServiceObj struct {
	Name  string
	Owner *VPE
	RGate *RGateObj
	// sendEP is the kernel-DTU endpoint configured for the control
	// channel.
	sendEP int
	// sel is where sysCreateSrv installed the service capability in
	// Owner's table; sessions hang off it in the revocation tree.
	sel kif.CapSel

	// Epoch is the service incarnation number: 1 for the first
	// registration of a name, bumped every time the supervisor (or
	// anyone) re-registers the same name. A stale ServiceObj never
	// receives new requests: callService refuses it.
	Epoch uint64
}

// SessObj represents a session between a client VPE and a service. The
// Ident was chosen by the service when accepting the session; the
// kernel passes it back on every session operation, like a label, so
// the service finds its state without trusting the client.
type SessObj struct {
	Service *ServiceObj
	Ident   uint64
	Client  *VPE
}
