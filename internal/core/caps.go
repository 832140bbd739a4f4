// Package core implements the M3 kernel: the paper's OS contribution.
//
// The kernel runs on a dedicated PE and is the only privileged entity.
// It manages virtual processing elements (VPEs), their capability
// tables, and the system's memories, and it exercises NoC-level
// isolation by remotely configuring the DTU endpoints of application
// PEs. System calls arrive as DTU messages on the kernel's syscall
// receive endpoint and are answered with DTU replies; after a channel
// is established, the kernel is no longer involved in communication.
package core

import (
	"fmt"
	"sort"

	"repro/internal/kif"
)

// CapType is the kind of kernel object behind a capability.
type CapType uint8

// Capability types.
const (
	CapInvalid CapType = iota
	CapVPE
	CapMem
	CapRGate
	CapSGate
	CapService
	CapSession
)

func (t CapType) String() string {
	switch t {
	case CapVPE:
		return "vpe"
	case CapMem:
		return "mem"
	case CapRGate:
		return "rgate"
	case CapSGate:
		return "sgate"
	case CapService:
		return "service"
	case CapSession:
		return "session"
	}
	return "invalid"
}

// Capability pairs a kernel object with permissions for it (the paper's
// definition). Delegations form a tree per object so that revoke can
// undo all grants recursively, like the mapping database of L4
// microkernels.
type Capability struct {
	Type CapType
	Obj  any

	table    *CapTable
	sel      kif.CapSel
	parent   *Capability
	children []*Capability
}

// Sel returns the selector under which the capability is installed.
func (c *Capability) Sel() kif.CapSel { return c.sel }

// Table returns the owning capability table.
func (c *Capability) Table() *CapTable { return c.table }

// CapTable is the per-VPE capability table, "similar to the file
// descriptor table in UNIX systems".
type CapTable struct {
	vpe  *VPE
	caps map[kif.CapSel]*Capability
}

func newCapTable(vpe *VPE) *CapTable {
	return &CapTable{vpe: vpe, caps: make(map[kif.CapSel]*Capability)}
}

// VPE returns the table's owner.
func (t *CapTable) VPE() *VPE { return t.vpe }

// Len returns the number of installed capabilities.
func (t *CapTable) Len() int { return len(t.caps) }

// Sels returns the installed selectors in sorted order (for test
// assertions over surviving capabilities).
func (t *CapTable) Sels() []kif.CapSel {
	sels := make([]kif.CapSel, 0, len(t.caps))
	for sel := range t.caps {
		sels = append(sels, sel)
	}
	sort.Slice(sels, func(i, j int) bool { return sels[i] < sels[j] })
	return sels
}

// Get returns the capability at sel if it has the wanted type.
// CapInvalid matches any type.
func (t *CapTable) Get(sel kif.CapSel, want CapType) (*Capability, kif.Error) {
	c, ok := t.caps[sel]
	if !ok {
		return nil, kif.ErrNoSuchCap
	}
	if want != CapInvalid && c.Type != want {
		return nil, kif.ErrNoSuchCap
	}
	return c, kif.OK
}

// Install places a fresh root capability at sel. Installing over an
// occupied selector fails (the client must revoke first).
func (t *CapTable) Install(sel kif.CapSel, typ CapType, obj any) (*Capability, kif.Error) {
	if _, ok := t.caps[sel]; ok {
		return nil, kif.ErrExists
	}
	c := &Capability{Type: typ, Obj: obj, table: t, sel: sel}
	t.caps[sel] = c
	return c, kif.OK
}

// InstallChild places a fresh capability of a possibly different type
// at sel, recorded as a child of parent in the revocation tree (e.g. a
// send gate under its receive gate, a session under its service).
func (t *CapTable) InstallChild(parent *Capability, sel kif.CapSel, typ CapType, obj any) (*Capability, kif.Error) {
	c, err := t.Install(sel, typ, obj)
	if err != kif.OK {
		return nil, err
	}
	c.parent = parent
	parent.children = append(parent.children, c)
	return c, kif.OK
}

// DelegateTo copies c into dst at sel, recording the delegation in the
// object's tree so that revoking c also removes the copy. The object
// may be replaced (e.g. a derived, smaller memory object).
func (c *Capability) DelegateTo(dst *CapTable, sel kif.CapSel, obj any) (*Capability, kif.Error) {
	if obj == nil {
		obj = c.Obj
	}
	child, err := dst.Install(sel, c.Type, obj)
	if err != kif.OK {
		return nil, err
	}
	child.parent = c
	c.children = append(c.children, child)
	return child, kif.OK
}

// Revoke removes the capability and, recursively, every delegation made
// from it ("undo all grants of a capability recursively"). onDrop is
// invoked for each removed capability, root last, so the kernel can
// release the kernel objects of leaves first.
func (c *Capability) Revoke(onDrop func(*Capability)) {
	for len(c.children) > 0 {
		child := c.children[len(c.children)-1]
		c.children = c.children[:len(c.children)-1]
		child.parent = nil
		child.Revoke(onDrop)
	}
	if c.parent != nil {
		c.parent.removeChild(c)
	}
	delete(c.table.caps, c.sel)
	if onDrop != nil {
		onDrop(c)
	}
}

func (c *Capability) removeChild(child *Capability) {
	for i, ch := range c.children {
		if ch == child {
			c.children = append(c.children[:i], c.children[i+1:]...)
			return
		}
	}
}

// revokeAll drops every capability in the table (VPE teardown). The
// selectors are walked in sorted order: revocation triggers session
// closes and memory releases, so the walk order is part of the event
// schedule and must not depend on map iteration order.
func (t *CapTable) revokeAll(onDrop func(*Capability)) {
	sels := make([]kif.CapSel, 0, len(t.caps))
	for sel := range t.caps {
		sels = append(sels, sel)
	}
	sort.Slice(sels, func(i, j int) bool { return sels[i] < sels[j] })
	for _, sel := range sels {
		// Revoking one capability may already have removed children
		// that shared the table, so re-check each selector.
		if c, ok := t.caps[sel]; ok {
			c.Revoke(onDrop)
		}
	}
}

func (c *Capability) String() string {
	return fmt.Sprintf("cap(%s@%d)", c.Type, c.sel)
}
