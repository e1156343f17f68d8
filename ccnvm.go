// Package ccnvm is a from-scratch reproduction of "No Compromises:
// Secure NVM with Crash Consistency, Write-Efficiency and
// High-Performance" (Yang, Lu, Chen, Mao, Shu — DAC 2019).
//
// It bundles a cycle-level memory-hierarchy simulator (trace-driven
// core, L1/L2 caches, metadata cache, memory controller with an
// ADR-backed write pending queue, banked PCM device), a fully
// functional security layer (real AES counter-mode encryption,
// truncated HMAC-SHA-1 authentication, a 4-ary Bonsai Merkle Tree),
// the cc-NVM crash-consistency design with epoch-based consistent BMT
// and deferred spreading, and every baseline the paper evaluates
// against: secure NVM without crash consistency, strict consistency,
// Osiris Plus, and cc-NVM without deferred spreading.
//
// The three entry points most users need:
//
//   - Simulation: NewMachine / RunBenchmark run a design over a
//     workload and report IPC, NVM traffic and engine activity.
//   - Evaluation: RunFig5 / RunFig6a / RunFig6b regenerate the paper's
//     figures over the built-in SPEC CPU2006 stand-in workloads.
//   - Recovery: Crash a machine, optionally spoof a data block with
//     SpoofData, then Recover the image to detect and locate tampering
//     exactly as the paper's §4.4 describes.
//   - Serving: OpenStore exposes the secure NVM as a concurrency-safe
//     storage engine (reads, epoch-batched writes, snapshots, crash +
//     reboot), and OpenKV layers a crash-consistent key-value namespace
//     on top — the stack behind the ccnvm-kvd daemon.
//
// Everything is deterministic: the same configuration and seed always
// produce the same cycle counts, traffic and recovery outcomes.
package ccnvm

import (
	"io"

	"ccnvm/internal/attack"
	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/experiments"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/sim"
	"ccnvm/internal/store"
	"ccnvm/internal/trace"
)

// Design names accepted by Config.Design, RunBenchmark and the Run*
// evaluation helpers. The canonical list lives in the internal design
// registry; these constants re-export it so callers never spell a
// design name as a raw string.
const (
	DesignWoCC      = design.WoCC      // secure NVM without crash consistency (the baseline)
	DesignSC        = design.SC        // strict consistency
	DesignOsiris    = design.Osiris    // Osiris Plus
	DesignCCNVMWoDS = design.CCNVMWoDS // cc-NVM without deferred spreading
	DesignCCNVM     = design.CCNVM     // cc-NVM (the paper's design)
	DesignCCNVMExt  = design.CCNVMExt  // §4.4 extension with per-line update registers
	DesignArsenal   = design.Arsenal   // related-work compression baseline
)

// Core simulation types.
type (
	// Config describes one simulated machine; the zero value selects the
	// paper's configuration (16 GiB PCM, 32 KB/256 KB caches, 128 KB
	// metadata cache, N=16, M=64).
	Config = sim.Config
	// Machine is a runnable simulated system.
	Machine = sim.Machine
	// Result is the outcome of a simulation run.
	Result = sim.Result
	// Params carries the security engine's limits N and M.
	Params = engine.Params

	// Addr is a physical line-aligned NVM address.
	Addr = mem.Addr
	// Line is one 64-byte memory line.
	Line = mem.Line

	// Op is one trace operation; Profile parameterizes a synthetic
	// workload; Generator produces deterministic op streams.
	Op        = trace.Op
	Profile   = trace.Profile
	Generator = trace.Generator

	// CrashImage is the persistent state surviving a power failure.
	CrashImage = engine.CrashImage
	// RecoveryReport is the outcome of post-crash recovery.
	RecoveryReport = recovery.Report
	// Recovered is the state a rebooted controller resumes from.
	Recovered = recovery.Recovered
	// TamperedBlock is a located spoofing/splicing attack.
	TamperedBlock = recovery.TamperedBlock

	// WriteBreakdown counts NVM line writes by region.
	WriteBreakdown = nvm.WriteBreakdown

	// EvalOptions control the figure-regeneration sweeps.
	EvalOptions = experiments.Options
	// Fig5 is the design x benchmark matrix behind Figures 5(a)/(b).
	Fig5 = experiments.Fig5
	// Fig6 is one sensitivity sweep behind Figures 6(a)/(b).
	Fig6 = experiments.Fig6
	// Headline holds the paper's summary claims computed from a run.
	Headline = experiments.Headline
	// RecoveryMatrix is the §4.4 design x attack capability table.
	RecoveryMatrix = experiments.RecoveryMatrix
	// Lifetime is the per-design NVM endurance summary.
	Lifetime = experiments.Lifetime
)

// Storage engine facade and KV layer (the serving stack).
type (
	// Storage is the concurrency-safe storage-engine facade over one
	// secure NVM: reads, epoch-batched writes, COW snapshots, crash
	// capture and recovery-aware reboot. (Store is taken by the trace
	// op kind, which predates the facade.)
	Storage = store.Store
	// StorageOptions configure OpenStore / RebootStore.
	StorageOptions = store.Options

	// KV is one crash-consistent key-value namespace over a Store.
	KV = kv.DB
	// KVOptions configure OpenKV (e.g. the write-stall controller).
	KVOptions = kv.Options
	// KVOp is one operation of an atomic KV batch.
	KVOp = kv.Op
	// KVSnapshot is a point-in-time read view of a KV namespace.
	KVSnapshot = kv.Snapshot
	// KVServer speaks the ccnvm-kvd JSON-lines protocol over a listener.
	KVServer = kv.Server
)

// KV batch operation kinds.
const (
	KVPut    = kv.OpPut
	KVDelete = kv.OpDelete
)

// OpenStore opens a fresh storage engine over a new secure NVM.
func OpenStore(o StorageOptions) (*Storage, error) { return store.Open(o) }

// RebootStore recovers a crash image through the four-step + journal
// path and resumes serving from it.
func RebootStore(img *CrashImage, o StorageOptions) (*Storage, *RecoveryReport, error) {
	return store.Reboot(img, o)
}

// SaveCrashImage / LoadCrashImage persist crash images as
// checksummed, deterministic files (the ccnvm-kvd -image format).
func SaveCrashImage(path string, img *CrashImage) error { return store.SaveImage(path, img) }
func LoadCrashImage(path string) (*CrashImage, error)   { return store.LoadImage(path) }

// OpenKV opens (or, after a reboot, rebuilds from the persisted log)
// a KV namespace over a store.
func OpenKV(st *Storage, o KVOptions) (*KV, error) { return kv.Open(st, o) }

// NewKVServer wraps a namespace in the JSON-lines protocol server.
func NewKVServer(db *KV) *KVServer { return kv.NewServer(db) }

// Memory-operation kinds for hand-built traces.
const (
	Load  = trace.Load
	Store = trace.Store
)

// Designs returns the five evaluated designs in the paper's order,
// DesignWoCC through DesignCCNVM.
func Designs() []string { return sim.Designs() }

// AllDesigns additionally includes DesignCCNVMExt — the paper's §4.4
// future-work extension: persistent per-line update registers that let
// recovery localize even the deferred-spreading replay window — and the
// DesignArsenal compression baseline.
func AllDesigns() []string { return sim.AllDesigns() }

// DesignLabel maps a design name to the paper's label (e.g. DesignCCNVM
// renders as cc-NVM).
func DesignLabel(d string) string { return sim.DesignLabel(d) }

// Benchmarks returns the eight SPEC CPU2006 stand-in workloads in the
// paper's figure order.
func Benchmarks() []string { return trace.Benchmarks() }

// ProfileByName returns a built-in workload profile.
func ProfileByName(name string) (Profile, error) { return trace.ProfileByName(name) }

// NewGenerator builds a deterministic trace generator.
func NewGenerator(p Profile, seed int64) (*Generator, error) { return trace.NewGenerator(p, seed) }

// CollectOps materializes n operations from a generator so that every
// design can replay an identical stream.
func CollectOps(g *Generator, n int) []Op { return trace.Collect(g, n) }

// NewMachine builds a simulated machine.
func NewMachine(cfg Config) (*Machine, error) { return sim.New(cfg) }

// RunBenchmark builds a machine for design, generates the named
// built-in workload with the given seed and runs n memory operations.
func RunBenchmark(design, benchmark string, n int, seed int64, cfg Config) (Result, error) {
	return sim.RunBenchmark(design, benchmark, n, seed, cfg)
}

// RunFig5 runs the full design x benchmark matrix behind Figure 5.
func RunFig5(o EvalOptions) (*Fig5, error) { return experiments.RunFig5(o) }

// RunFig6a sweeps the update-times limit N (Figure 6(a)); nil selects
// the paper's {4, 8, 16, 32, 64}.
func RunFig6a(o EvalOptions, ns []uint64) (*Fig6, error) { return experiments.RunFig6a(o, ns) }

// RunFig6b sweeps the dirty-address-queue entries M (Figure 6(b)); nil
// selects the paper's {32, 40, 48, 56, 64}.
func RunFig6b(o EvalOptions, ms []int) (*Fig6, error) { return experiments.RunFig6b(o, ms) }

// RunRecoveryMatrix crashes every design under every §4.4 attack and
// classifies the recovery outcome (clean / detected / located /
// unrecoverable). nil selects all designs including the extension.
func RunRecoveryMatrix(designs []string) (*RecoveryMatrix, error) {
	return experiments.RunRecoveryMatrix(designs)
}

// RunLifetime measures the endurance impact (total writes, hottest-line
// wear, relative lifetime) of every design on one workload.
func RunLifetime(o EvalOptions, benchmark string) (*Lifetime, error) {
	return experiments.RunLifetime(o, benchmark)
}

// Recover runs the paper's four-step crash recovery and attack location
// on a crash image.
func Recover(img *CrashImage) *RecoveryReport { return recovery.Recover(img) }

// ApplyRecovery writes the recovered counters and rebuilt Merkle tree
// into the image and returns the TCB state a rebooted machine resumes
// from. Call it only for a clean (or located-and-discarded) report.
func ApplyRecovery(img *CrashImage, rep *RecoveryReport) Recovered {
	return recovery.Apply(img, rep)
}

// Attack injection (the §2.1 adversary: full control of NVM, no access
// to the TCB registers).

// SpoofData flips bits in the data block at addr.
func SpoofData(img *CrashImage, addr Addr) error { return attack.SpoofData(img, addr) }

// SaveTrace writes ops to w in the binary trace format; ParseTrace
// reads them back. Recorded traces replay byte-identically across
// machines, tools and versions.
func SaveTrace(w io.Writer, ops []Op) error { return trace.Save(w, ops) }

// ParseTrace reads a trace written by SaveTrace.
func ParseTrace(r io.Reader) ([]Op, error) { return trace.Parse(r) }

// Workload toolkit: generic shapes beyond the SPEC stand-ins, for
// custom experiments. All return ordinary Profiles.

// UniformProfile is uniformly random line access over footprintPages
// 4 KiB pages.
func UniformProfile(name string, footprintPages int, storeFraction float64) Profile {
	return trace.UniformProfile(name, footprintPages, storeFraction)
}

// StreamProfile is a pure unit-stride sweep (copy/init kernels).
func StreamProfile(name string, footprintPages int, storeFraction float64) Profile {
	return trace.StreamProfile(name, footprintPages, storeFraction)
}

// PointerChaseProfile is a dependent random walk (linked lists, trees).
func PointerChaseProfile(name string, footprintPages int) Profile {
	return trace.PointerChaseProfile(name, footprintPages)
}
