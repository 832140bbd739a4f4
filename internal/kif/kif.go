// Package kif defines the kernel interface: the wire protocol spoken
// over DTU channels between applications, the M3 kernel, and services.
// It contains the system-call and service-protocol opcodes and a small
// marshalling framework (the paper's libm3 overloads C++ shift
// operators; OStream/IStream are the Go equivalent).
//
// Both streams are built for a message round trip that allocates
// nothing once warm. An OStream's Reset keeps its buffer, so each
// owner (the kernel, a libm3 environment, an m3fs client or service)
// marshals every message into one reused stream. An IStream is a value
// that decodes its bytes in place; over a message payload it is valid
// only until the message is acked, so callers that decode a reply
// later copy the payload out first. Decoding is total: truncated or
// hostile input, including lengths near MaxInt64, sets the sticky
// error and never panics (FuzzIStream).
package kif

// Syscall opcodes: messages on an application's syscall send gate,
// handled by the kernel PE.
type SyscallOp uint64

const (
	SysNoop SyscallOp = iota // null system call, used by the Figure 3 micro-benchmark
	SysCreateVPE
	SysVPEStart
	SysVPEWait
	SysExit
	SysReqMem
	SysDeriveMem
	SysCreateRGate
	SysCreateSGate
	SysActivate
	SysCreateSrv
	SysOpenSess
	SysExchangeSess
	SysDelegate
	SysObtain
	SysRevoke
)

var sysNames = map[SyscallOp]string{
	SysNoop: "noop", SysCreateVPE: "createvpe", SysVPEStart: "vpestart",
	SysVPEWait: "vpewait", SysExit: "exit", SysReqMem: "reqmem",
	SysDeriveMem: "derivemem", SysCreateRGate: "creatergate",
	SysCreateSGate: "createsgate", SysActivate: "activate",
	SysCreateSrv: "createsrv", SysOpenSess: "opensess",
	SysExchangeSess: "exchangesess", SysDelegate: "delegate",
	SysObtain: "obtain", SysRevoke: "revoke",
}

func (op SyscallOp) String() string {
	if s, ok := sysNames[op]; ok {
		return s
	}
	return "unknown"
}

// Service-control opcodes: messages from the kernel to a service's
// control gate, created at service registration.
type ServiceOp uint64

const (
	ServOpen     ServiceOp = iota + 100 // open a session
	ServExchange                        // session-scoped capability exchange
	ServCloseSess
)

// Error codes carried in replies. 0 is success.
type Error uint64

const (
	OK Error = iota
	ErrInvalidArgs
	ErrNoSuchCap
	ErrNoPerm
	ErrNoFreePE
	ErrNoSpace
	ErrNoSuchService
	ErrNoSuchSession
	ErrNoSuchFile
	ErrExists
	ErrUnsupported
	ErrEndOfFile
	ErrVPEGone
	ErrRefused
	ErrTimeout
	// ErrOverload reports a request refused at the receiving DTU's
	// admission watermark before any work was done. Unlike ErrTimeout
	// it is a fast failure from a healthy service, so it never
	// triggers session recovery (docs/OVERLOAD.md).
	ErrOverload
	// ErrIsDir refuses to open a directory for writing or truncation.
	ErrIsDir
	// ErrNotEmpty refuses to unlink a directory that has entries.
	ErrNotEmpty
	// ErrNotDir reports a path component that is not a directory.
	ErrNotDir
)

var errNames = map[Error]string{
	OK: "ok", ErrInvalidArgs: "invalid arguments", ErrNoSuchCap: "no such capability",
	ErrNoPerm: "permission denied", ErrNoFreePE: "no free PE", ErrNoSpace: "no space",
	ErrNoSuchService: "no such service", ErrNoSuchSession: "no such session",
	ErrNoSuchFile: "no such file or directory", ErrExists: "already exists",
	ErrUnsupported: "unsupported", ErrEndOfFile: "end of file",
	ErrVPEGone: "vpe gone", ErrRefused: "refused by service",
	ErrTimeout: "timed out", ErrOverload: "overloaded", ErrIsDir: "is a directory",
	ErrNotEmpty: "directory not empty", ErrNotDir: "not a directory",
}

func (e Error) Error() string {
	if s, ok := errNames[e]; ok {
		return s
	}
	return "unknown error"
}

// CapSel is a capability selector: an index into a VPE's capability
// table, allocated by the application (as in L4-style systems) and
// validated by the kernel.
type CapSel uint64

// InvalidSel marks "no capability".
const InvalidSel CapSel = ^CapSel(0)

// CapRange names a contiguous range of selectors exchanged in one
// operation.
type CapRange struct {
	Start CapSel
	Count uint64
}

// Perm mirrors dtu.Perm at the protocol level to keep kif free of
// hardware imports.
type Perm uint64

// Permissions.
const (
	PermR  Perm = 1
	PermW  Perm = 2
	PermRW Perm = PermR | PermW
)
