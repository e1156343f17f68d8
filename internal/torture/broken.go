package torture

import (
	"fmt"
	"slices"

	"ccnvm/internal/bmt"
	"ccnvm/internal/engine"
	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/store"
)

// BrokenModes lists the deliberate defects the harness can run, used to
// prove the oracles have teeth: each mode must be caught by at least
// one oracle on an otherwise healthy matrix.
func BrokenModes() []string {
	return []string{"skip-counter-replay", "ignore-tampered", "skip-root-check", "accept-torn", "accept-divergent", "reorder-persist", "break-remap-commit", "break-compact-switch"}
}

// reorderAfterCommits is the reorder-persist defect's arming point in a
// trace cell: the first non-epoch write after this many epoch commits
// is the victim. Fixed so repro commands and the guided-mode self-test
// agree on the injected bug's location.
const reorderAfterCommits = 3

// reorderKVAfterCommits is the arming point in a KV cell. A batch
// closes no epoch, so a five-batch cell may never see three commits;
// the victim is the cell's first write, inside its first epoch.
const reorderKVAfterCommits = 0

// BrokenRunner returns a runner broken in the named way. The recovery
// modes forge reports that claim success, so only the differential
// oracles (golden state, replay-window accounting) can tell; the
// controller, device and compactor modes edit what reaches the media
// through the Arm and Reopen seams, so the product carries no defect.
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
		// durability guarantee and persists only at the NEXT commit.
		// Runtime reads still see the write (the WPQ would forward it), so
		// the defect is observable only at a crash point inside the
		// victim-write→commit window — exactly one persist-ordering edge
		// of the cell's graph. Guided enumeration schedules a point per
		// distinct edge cut and lands in the window; evenly spaced points
		// at the same budget straddle it. A KV cell arms at its first
		// write (reorderKVAfterCommits): an acknowledged batch whose line
		// never persisted trips kv-clean-recovery, as the reopen refuses
		// the damaged frame or, where the counter retry flags the stale
		// line first (cc-NVM), as recovery does.
		// Fault-model cells run clean: their crash-time tearing assumes
		// nominal WPQ ordering and they are not the test.
		return &Runner{
			Arm: func(c Cell, st *store.Store) func(*nvm.Image) {
				switch {
				case c.Faulty():
					return nil
				case c.KV():
					return reorderPersist(st, reorderKVAfterCommits)
				}
				return reorderPersist(st, reorderAfterCommits)
			},
		}, nil
	case "break-remap-commit":
		// A device-level wear-management bug: spares are consumed and lines
		// remapped, but the durable remap record is never written — the
		// atomic-commit discipline silently dropped. Everything looks fine
		// until the crash, when the persisted table (the one the cell
		// armed with) disagrees with the spares the device actually spent
		// by more than the one record a torn commit may legitimately roll
		// back. The spare-accounting ledger reconciliation is the oracle
		// that must notice. Only finite-pool cells are broken; the rest of
		// the matrix runs clean.
		return &Runner{
			Arm: func(c Cell, st *store.Store) func(*nvm.Image) {
				if c.Spares == 0 {
					return nil
				}
				table := slices.Clone(st.Device().RemapTable())
				return func(img *nvm.Image) { img.RemapTable = slices.Clone(table) }
			},
		}, nil
	case "break-compact-switch":
		// A KV-layer crash-consistency bug: the compactor copies the live
		// set and switches the in-memory keymap, but its manifest commit
		// never lands — the classic "forgot the commit record" defect.
		// The namespace looks perfect until the crash, when reopen follows
		// the fresh namespace's empty manifest to a tail at the arena's
		// first line: a log the passes had cut off there, or the seq gap
		// where the head overwrote it. The compaction oracles (generation
		// equality first, lost-acked and resurrection checks behind it)
		// must catch it on any compact cell; non-compact cells run clean.
		return &Runner{
			Reopen: func(c Cell, st *store.Store) error {
				if c.CompactEvery == 0 {
					return nil
				}
				for a := 0; a < kv.ManifestFormat.TableLen(); a += mem.LineSize {
					if err := st.Write(mem.Addr(a), mem.Line{}); err != nil {
						return err
					}
				}
				return nil
			},
		}, nil
	}
	return nil, fmt.Errorf("torture: unknown broken mode %q (have %v)", mode, BrokenModes())
}

// reorderPersist arms the reorder-persist defect on st through its
// event tap: the first write accepted after the given number of epoch
// commits is the victim, and until the next commit an image of the
// device loses it — the returned edit puts back the victim line's
// content from before that write, or removes a line the write created.
// That content is read through Store.Peek, since inside a call the
// device can lag by a request's owed data-HMAC line.
// Later writes to the victim line inside the window are lost with it,
// as if they coalesced into the unpersisted slot.
func reorderPersist(st *store.Store, after int) func(*nvm.Image) {
	var (
		commits      int
		hunting      = true
		open         bool
		victim       mem.Addr
		prior        mem.Line
		priorPresent bool
	)
	st.SetEventTap(func(ev store.Event) {
		switch ev.Kind {
		case store.EvEpochCommit:
			commits++
			open = false
		case store.EvWriteAccept:
			if hunting && commits >= after {
				hunting, open, victim = false, true, ev.Addr
				prior, priorPresent = st.Peek(ev.Addr)
			}
		}
	})
	return func(img *nvm.Image) {
		switch {
		case !open:
		case priorPresent:
			img.Write(victim, prior)
		default:
			img.Store.Delete(victim)
		}
	}
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
