package torture

import (
	"fmt"

	"ccnvm/internal/bmt"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/store"
)

// BrokenModes lists the deliberately sabotaged recovery variants the
// harness can run, used to prove the oracles have teeth: each mode must
// be caught by at least one oracle on an otherwise healthy matrix.
func BrokenModes() []string {
	return []string{"skip-counter-replay", "ignore-tampered", "skip-root-check", "accept-torn", "accept-divergent", "reorder-persist", "break-remap-commit", "break-compact-switch"}
}

// reorderAfterCommits is the reorder-persist defect's arming point: the
// first non-epoch write after this many epoch commits is the victim.
// Fixed so repro commands and the guided-mode self-test agree on the
// injected bug's location.
const reorderAfterCommits = 3

// BrokenRunner returns a runner whose recovery is sabotaged in the named
// way. The sabotage forges reports that claim success, so only the
// differential oracles (golden state, replay-window accounting) can tell.
func BrokenRunner(mode string) (*Runner, error) {
	switch mode {
	case "skip-counter-replay":
		// Recovery "succeeds" without replaying stale counters: the report
		// claims a clean image and Apply rebuilds the tree over whatever
		// counter lines the crash left behind. Any design with lagging
		// counters (osiris, ccnvm mid-epoch) then decrypts garbage — the
		// golden-state oracle's job to notice.
		return &Runner{
			Recover: func(img *engine.CrashImage) *recovery.Report {
				rep := recoverSpotless(img)
				if rep.ConsistentRoot == "" {
					rep.ConsistentRoot = "old"
				}
				return rep
			},
			Apply: func(img *engine.CrashImage, rep *recovery.Report) recovery.Recovered {
				// Rebuild the tree over the stale counters instead of the
				// replayed ones, and do not touch the counter region.
				lay := img.Image.Layout
				tree := bmt.New(lay, seccrypto.MustEngine(img.Keys))
				cas := img.Image.Store.Range(lay.Bounds(mem.RegionCounter))
				nodes, root := tree.Rebuild(img.Image.Store, cas)
				for a, n := range nodes {
					img.Image.Write(a, n)
				}
				return recovery.Recovered{TCB: engine.TCB{RootNew: root, RootOld: root, Nwb: 0}}
			},
		}, nil
	case "ignore-tampered":
		// Detection is dropped on the floor: whatever recovery finds, the
		// report comes back spotless. Attack cells must trip attack-caught
		// (clean report + corrupted state fails the golden heal check).
		return &Runner{Recover: recoverSpotless}, nil
	case "skip-root-check":
		// The tree-vs-root verification is skipped and the root reported
		// consistent unconditionally; tree spoofs and counter replays on
		// tree-persisting designs then sail through as "clean".
		return &Runner{
			Recover: func(img *engine.CrashImage) *recovery.Report {
				rep := recovery.Recover(img)
				rep.TreeMismatches = nil
				if rep.ConsistentRoot == "" {
					rep.ConsistentRoot = "new"
				}
				return rep
			},
		}, nil
	case "accept-torn":
		// The media-loss classification is erased: recovery trusts every
		// line the crash left behind and the report claims a lossless
		// image. Fault cells must trip the torn-write/adr-budget oracles —
		// stale or fabricated content silently accepted, or a lossless
		// claim over a non-empty suspects manifest.
		return &Runner{
			Recover: func(img *engine.CrashImage) *recovery.Report {
				rep := recovery.Recover(img)
				rep.LostBlocks = nil
				rep.MediaErrors = nil
				rep.CrashLossWindow = false
				return rep
			},
		}, nil
	case "accept-divergent":
		// Re-entrancy is sabotaged: a resumed Apply pass declares victory
		// without writing its remaining plan. It "finishes" recovery on a
		// scratch clone and copies back only the committed registers and
		// the deactivated journal, accepting the half-applied store as
		// converged. The report stays honest and the journal commits, so
		// only the reboot-convergence oracle — final state vs the
		// single-shot golden — can tell.
		return &Runner{
			ApplyInterrupted: func(img *engine.CrashImage, rep *recovery.Report, itr *recovery.Interrupt) (recovery.Recovered, bool) {
				if !recovery.JournalActive(img) {
					return recovery.ApplyInterrupted(img, rep, itr)
				}
				clone := img.Clone()
				rec, ok := recovery.ApplyInterrupted(clone, nil, nil)
				if !ok {
					return rec, false
				}
				img.RecoveryJournal = clone.RecoveryJournal
				img.TCB = clone.TCB
				return rec, true
			},
		}, nil
	case "reorder-persist":
		// A controller-level ordering bug rather than a recovery one: the
		// first non-epoch write after the third epoch commit loses its ADR
		// durability guarantee and persists only at the NEXT commit (see
		// memctrl.SabotageReorderPersist). Runtime reads still see the
		// write (the WPQ forwards it), so the defect is observable only at
		// a crash point inside the victim-write→commit window — exactly
		// one persist-ordering edge of the cell's graph. Guided
		// enumeration schedules a point per distinct edge cut and lands in
		// the window; evenly spaced points at the same budget straddle it.
		// Fault-model cells run unsabotaged: the knob is incompatible with
		// crash-time tear composition and those cells are not the test;
		// neither are KV cells.
		return &Runner{
			Arm: func(c Cell, st *store.Store, _ *kv.DB) {
				if !c.Faulty() && !c.KV() {
					st.SabotageReorderPersist(reorderAfterCommits)
				}
			},
		}, nil
	case "break-remap-commit":
		// A device-level wear-management bug: spares are consumed and lines
		// remapped, but the durable remap record is never written — the
		// atomic-commit discipline silently dropped. Everything looks fine
		// until the crash, when the persisted table disagrees with the
		// spares the device actually spent by more than the one record a
		// torn commit may legitimately roll back. The spare-accounting
		// ledger reconciliation is the oracle that must notice. Only
		// finite-pool cells arm the knob; the rest of the matrix runs
		// clean.
		return &Runner{
			Arm: func(c Cell, st *store.Store, _ *kv.DB) {
				if c.Spares > 0 {
					st.Device().SabotageDropRemapCommit()
				}
			},
		}, nil
	case "break-compact-switch":
		// A KV-layer crash-consistency bug: the compactor copies the live
		// set, switches the in-memory keymap and reclaims the retired
		// half, but never writes the manifest slot that commits the
		// switch — the classic "forgot the commit record" defect. The
		// namespace looks perfect until the crash, when reopen follows
		// the stale manifest into a half whose frames were just zeroed.
		// The compaction oracles (generation equality first, lost-acked
		// and resurrection checks behind it) must catch it on any compact
		// cell; non-compact cells run clean.
		return &Runner{
			Arm: func(c Cell, _ *store.Store, db *kv.DB) {
				if c.CompactEvery > 0 {
					db.SabotageDropManifestCommit()
				}
			},
		}, nil
	}
	return nil, fmt.Errorf("torture: unknown broken mode %q (have %v)", mode, BrokenModes())
}

// recoverSpotless runs the real recovery and drops every tamper and
// replay verdict from its report, balancing the retry bookkeeping.
func recoverSpotless(img *engine.CrashImage) *recovery.Report {
	rep := recovery.Recover(img)
	rep.Tampered = nil
	rep.TreeMismatches = nil
	rep.ReplayedPages = nil
	rep.PotentialReplay = false
	rep.Nretry = rep.Nwb
	return rep
}
