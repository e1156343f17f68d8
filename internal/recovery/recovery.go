// Package recovery implements post-crash recovery and attack location
// for secure-NVM crash images (paper §4.4). Given the persistent state
// a design left behind — the NVM image and the TCB registers — it
// executes the four-step process:
//
//  1. Verify the in-NVM Merkle tree against ROOTold/ROOTnew and locate
//     replay attacks as parent/child mismatches.
//  2. Recover every stalled counter by retrying the data HMAC up to N
//     increments, locating spoofing/splicing attacks as blocks whose
//     HMAC never matches.
//  3. Compare the total retry count Nretry against the Nwb register to
//     detect the deferred-spreading replay window (detected, not
//     locatable).
//  4. Rebuild the Merkle tree from the recovered counters and install
//     the new root.
//
// Every design runs the same four steps, shaped only by its registry
// capabilities: Osiris Plus, Arsenal and cc-NVM w/o DS compare the
// rebuilt root against ROOTnew (detect-only), SC expects zero retries,
// and a w/o-CC image is generally unrecoverable — which is the paper's
// motivation. Arsenal's packed lines are a per-block case of step 2:
// their counters unpack from the line instead of being retried.
package recovery

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"

	"ccnvm/internal/bmt"
	"ccnvm/internal/design"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/seccrypto"
)

// TamperedBlock is a data block whose HMAC could not be matched within
// the retry budget: a located spoofing or splicing attack (or, for
// designs without bounded counter staleness, an unrecoverable block).
type TamperedBlock struct {
	Addr          mem.Addr
	StoredCounter uint64 // counter value found in the NVM image
}

// String renders the finding.
func (b TamperedBlock) String() string {
	return fmt.Sprintf("tampered data block %#x (stored counter %d)", uint64(b.Addr), b.StoredCounter)
}

// LostBlock is a data block recovery could not restore but attributes
// to crash-time media damage rather than tampering: the authentication
// failure is covered by the suspects manifest (a line the WPQ had
// accepted but possibly not serviced whole) or by a stuck line the
// device reports unreadable. Lost blocks are crash loss — detected,
// enumerated, and distinguishable from an attack.
type LostBlock struct {
	Addr  mem.Addr // the data block that could not be recovered
	Line  mem.Addr // the damaged line implicated (data, counter or HMAC line)
	Cause string   // "torn-data", "torn-counter", "torn-hmac", "stuck-data", "stuck-counter", "stuck-hmac"
}

// String renders the finding.
func (b LostBlock) String() string {
	return fmt.Sprintf("lost data block %#x (%s at %#x)", uint64(b.Addr), b.Cause, uint64(b.Line))
}

// Report is the outcome of recovery.
type Report struct {
	Design string

	// ConsistentRoot records which root register the NVM tree verified
	// against in step 1: "old", "new", or "" when the tree does not
	// verify (TreeMismatches then locates the damage). Designs that do
	// not persist the tree (Osiris) skip step 1 and leave it "".
	ConsistentRoot string

	// TreeMismatches are located replay attacks on counters or tree
	// nodes (step 1).
	TreeMismatches []bmt.Mismatch

	// Tampered are located spoofing/splicing attacks (step 2).
	Tampered []TamperedBlock

	// Nwb and Nretry feed step 3. PotentialReplay is the paper's
	// "detected but not locatable" verdict: Nretry != Nwb for cc-NVM, or
	// a rebuilt-root mismatch for the root-per-write-back designs.
	Nwb             uint64
	Nretry          uint64
	PotentialReplay bool

	// ReplayedPages lists the 4 KiB pages whose recorded per-line update
	// count disagrees with the recovered retries — the §4.4 extension's
	// page-granular location of data-replay attacks inside the
	// deferred-spreading window. Only designs with per-line replay
	// registers (cc-NVM+Ext) produce entries; plain cc-NVM can only set
	// PotentialReplay.
	ReplayedPages []mem.Addr

	// RecoveredBlocks counts data blocks whose counters were advanced;
	// RecoveredLines counts distinct counter lines rewritten.
	RecoveredBlocks int
	RecoveredLines  int

	// RebuiltRoot is the step-4 root implied by the recovered counters.
	RebuiltRoot mem.Line

	// LostBlocks are data blocks recovery could not restore but whose
	// authentication failure is media-attributable (see LostBlock): crash
	// loss, not tampering. Only produced when the image was taken under a
	// fault model.
	LostBlocks []LostBlock

	// MediaErrors lists lines the device reports permanently unreadable
	// (stuck-at after exhausting read retries). Recovery learns them from
	// the device, as real hardware would from uncorrectable-ECC machine
	// checks.
	MediaErrors []mem.Addr

	// HealedLines are suspect lines recovery verified or repaired — lines
	// the crash may have damaged but that were not implicated in any
	// loss: either the ADR flush completed them, or HMAC-replay / tree
	// rebuild restored their logical content.
	HealedLines []mem.Addr

	// CrashLossWindow reports that some acknowledged writes may have been
	// lost to media damage at crash. It is set pessimistically whenever
	// the suspects manifest is non-empty — an entry the ADR failed to
	// service whole may have dropped a write without leaving mismatching
	// bytes (a fully-masked tear keeps the previous self-consistent
	// content), so no amount of verification can prove the loss away —
	// and the enumerated LostBlocks refine it where damage is provable.
	// It is the media-fault analogue of PotentialReplay: detected, not
	// locatable beyond the suspect set — but attributable to the crash,
	// not to an attacker.
	CrashLossWindow bool

	// Resumed reports that the image carried an active recovery journal:
	// a previous Apply pass was interrupted mid-write, and this recovery
	// resumed it — verdicts restored from the journal, the pending write
	// read from its journaled copy — instead of restarting blind.
	Resumed bool

	// Spare-pool fields, populated only for images taken with a finite
	// spare pool (the device's remap table rode the image). The table is
	// validated and replayed before the four-step walk: SparesTotal and
	// SparesUsed come from the ruling record, and RemapTableTorn reports
	// that a remap commit was caught in flight — its slot failed the
	// checksum, the previous record ruled, and the interrupted remap
	// rolled back (the affected line simply re-presents as stuck or
	// weak; never as tampering).
	SparesTotal    int
	SparesUsed     int
	RemapTableTorn bool

	// res caches the step-2 counter walk so Apply reuses it instead of
	// walking the image a second time.
	res *counterResult
}

// Clean reports whether no attack was detected: the image decrypts,
// authenticates, and may resume service with the rebuilt tree.
func (r *Report) Clean() bool {
	return len(r.TreeMismatches) == 0 && len(r.Tampered) == 0 &&
		len(r.ReplayedPages) == 0 && !r.PotentialReplay
}

// Located reports whether every detected attack was pinned to specific
// blocks or nodes, so only those need discarding. This is cc-NVM's
// headline capability; a potential-replay verdict is detection without
// location.
func (r *Report) Located() bool {
	return !r.PotentialReplay &&
		(len(r.TreeMismatches) > 0 || len(r.Tampered) > 0 || len(r.ReplayedPages) > 0)
}

// Lossless reports whether recovery restored every acknowledged write:
// no attack detected, no blocks lost to media damage, no unreadable
// lines, and no crash-loss window. When false with Clean() true, the
// image is attack-free but some writes were lost to the crash — the
// report enumerates or bounds them.
func (r *Report) Lossless() bool {
	return r.Clean() && len(r.LostBlocks) == 0 && len(r.MediaErrors) == 0 && !r.CrashLossWindow
}

// Recovered is the post-recovery persistent state produced by Apply.
type Recovered struct {
	TCB engine.TCB

	// verdict is the image as a lossless Apply left it; see Verdict.
	verdict *engine.CrashImage
	// tree is the rebuilt tree Apply persisted; see Tree.
	tree map[mem.Addr]mem.Line
}

// Verdict is the boot verdict: a copy-on-write clone of the image as a
// lossless Apply left it. Every data line in it, read with the counter
// in its applied counter line, is a line this boot's step-2 walk
// authenticated — a packed line (its sideband tag) with its inline
// counter instead. It is nil when the pass was struck, the report was
// not lossless, the walk Apply used found a damaged block, or a packed
// block moved a page's major under a raw block the walk had
// authenticated. Like Apply, it trusts that the report came from
// Recover on the image as it was.
func (r Recovered) Verdict() *engine.CrashImage { return r.verdict }

// Tree is the Merkle tree the completed pass persisted and derived
// TCB.RootNew from: the rebuilt nodes by address; every other node is
// its level default. It is computed inside the boot, so a design that
// keeps its tree on chip (Osiris Plus, Arsenal) resumes from it rather
// than from the device's unverified copy. The map is shared: callers
// must not modify it.
func (r Recovered) Tree() map[mem.Addr]mem.Line { return r.tree }

// Recover runs the four-step process on a crash image, shaped by its
// design's registry capabilities; images of unregistered designs get the
// conservative fallback (design.ForImage). An image whose recovery
// journal is active — power failed during a previous Apply — resumes
// that pass instead of recovering from scratch.
//
// A finite spare pool's remap table is replayed first: the newest valid
// record rules and a torn slot — a remap commit caught in flight — is
// repaired from it, making the rollback durable. The mappings a
// rolled-back commit loses need no further replay: the affected lines
// re-present as stuck or weak and are remapped again in service, which
// is why a lost mapping is never misread as tampering. With no record
// ruling the table reads as unformatted: the pool restarts empty.
func Recover(img *engine.CrashImage) *Report {
	var spares nvm.RemapRecord
	var sparesTorn bool
	hasSpares := img != nil && img.Image != nil && len(img.Image.RemapTable) > 0
	if hasSpares {
		spares, _, sparesTorn = nvm.RepairRemapTable(img.Image.RemapTable)
	}
	var r *Report
	if rec, ok := loadJournal(img); ok && rec.Active {
		r = resumeRecover(img, rec)
	} else {
		r = recoverImage(img, design.ForImage(img.Design))
	}
	if hasSpares {
		r.SparesTotal = spares.Total
		r.SparesUsed = len(spares.Entries)
		r.RemapTableTorn = sparesTorn
	}
	return r
}

// resumeRecover rebuilds a Report for an image whose recovery was
// interrupted mid-Apply. Steps 1 and 3 are not re-run: their verdicts
// were established on the pre-Apply image and persisted in the journal
// header — re-deriving them from half-applied state would be wrong (a
// partially rebuilt tree matches neither root). The step-2 walk is
// recomputed with the journaled pending write overlaid, so the counter
// lines Apply already persisted verify at retry zero and the pass's
// remaining write plan falls out of the walk; the media sections are
// recomputed because Apply's completed writes legitimately heal stuck
// metadata lines.
func resumeRecover(img *engine.CrashImage, rec journalRecord) *Report {
	r := &Report{Design: img.Design, Resumed: true}
	cry := seccrypto.MustEngine(img.Keys)
	var pend *pendingWrite
	if rec.PendingValid {
		pend = &pendingWrite{addr: rec.PendingAddr, line: rec.PendingLine}
	}
	res := recoverCounters(img, cry, pend)
	r.res = &res

	r.ConsistentRoot = rec.ConsistentRoot
	r.Nwb = rec.Nwb
	r.Nretry = rec.Nretry
	r.RecoveredBlocks = rec.Blocks
	r.RecoveredLines = rec.Lines
	r.PotentialReplay = rec.PotentialReplay
	r.CrashLossWindow = rec.CrashLossWindow
	r.RebuiltRoot = rec.Root

	// Apply is only legal on a clean (or scrubbed) report, so a resumed
	// walk finds no tampering; keep the recomputed classification anyway
	// rather than asserting it away.
	r.Tampered = res.tampered
	r.LostBlocks = res.lost
	finishMediaReport(r, img, suspectSet(img), res.implicated)
	return r
}

// recoverImage runs the four-step process, with steps 1 and 3 shaped by
// the design's declared capabilities.
func recoverImage(img *engine.CrashImage, d design.Descriptor) *Report {
	r := &Report{Design: img.Design, Nwb: img.TCB.Nwb}
	cry := seccrypto.MustEngine(img.Keys)
	lay := img.Image.Layout
	tree := bmt.New(lay, cry)
	sus := suspectSet(img)

	// Step 1: locate replay attacks via the consistent NVM tree. Designs
	// that do not persist their tree (Osiris, Arsenal) have nothing to
	// check. Under a fault model, mismatches covered by the suspects
	// manifest (the torn line itself, or a child whose torn parent stores
	// a stale link) are crash damage: the step-4 rebuild heals them, and
	// only the unexplained remainder is reported as an attack.
	if d.Caps.TreePersisted {
		addrs := treeAddrs(lay, img.Image.Store)
		rd := imageReader{img.Image}
		if bad := tree.VerifyAll(rd, img.TCB.RootOld, addrs); len(bad) == 0 {
			r.ConsistentRoot = "old"
		} else if bad2 := tree.VerifyAll(rd, img.TCB.RootNew, addrs); len(bad2) == 0 {
			// Crash between the end signal and the ROOTold update: ADR
			// completed the drain, so the tree matches ROOTnew.
			r.ConsistentRoot = "new"
		} else if img.MediaFaults {
			atkOld := attackMismatches(lay, bad, sus)
			atkNew := attackMismatches(lay, bad2, sus)
			// The root whose unexplained mismatches are fewest is the one
			// the crash left authoritative.
			if len(atkNew) < len(atkOld) {
				r.TreeMismatches = atkNew
			} else {
				r.TreeMismatches = atkOld
			}
		} else {
			r.TreeMismatches = bad
		}
	}

	// Step 2: recover stalled counters via data HMAC retries.
	res := recoverCounters(img, cry, nil)
	r.res = &res
	r.Nretry = res.nretry
	r.RecoveredBlocks = res.blocks
	r.Tampered = res.tampered
	r.RecoveredLines = len(res.lines)
	r.LostBlocks = res.lost

	// faultEscape: media damage could explain a consistency anomaly that
	// would otherwise read as an attack. Requires evidence — suspects,
	// stuck lines, or enumerated losses — not merely an enabled model.
	faultEscape := img.MediaFaults && (len(sus) > 0 || len(res.lost) > 0)
	pagesSus := suspectCounterLines(lay, sus)

	// A non-empty manifest means the ADR flush stopped short: some entry
	// may have dropped whole, leaving stale self-consistent bytes no
	// check can flag. Report the loss window pessimistically.
	if img.MediaFaults && len(img.Suspects) > 0 {
		r.CrashLossWindow = true
	}

	// Step 3: detect the replay window. The check is conclusive only
	// when steps 1-2 located nothing: a located spoof/splice already
	// accounts for missing retries (its true retry count is unknowable).
	stepsClean := len(r.TreeMismatches) == 0 && len(r.Tampered) == 0
	switch d.Caps.Replay {
	case design.ReplayNwbWindow:
		if r.Nretry != r.Nwb && stepsClean {
			switch {
			case !faultEscape:
				r.PotentialReplay = true
			case r.Nretry < r.Nwb:
				// Fewer retries than acknowledged write-backs: some writes
				// never reached the media (dropped or torn by the partial
				// ADR drain). Crash loss, not replay.
				r.CrashLossWindow = true
			case r.Nretry-r.Nwb <= suspectRetries(res.perLine, pagesSus):
				// More retries than Nwb accounts for, but the excess is
				// fully explained by retries on media-damaged counter
				// lines (e.g. a committed epoch's counter drain torn after
				// Nwb was reset). Everything re-authenticated: healed.
			default:
				r.PotentialReplay = true
			}
		}
	case design.ReplayPerLinePage:
		// The extension compares each recorded per-line update count
		// against the line's recovered retries: a disagreeing line pins
		// the replay to its page — unless the page's lines are in the
		// suspect set, in which case the disagreement is crash loss.
		if stepsClean {
			for ca, recorded := range img.TCB.ExtDirty {
				if res.perLine[ca] == recorded {
					continue
				}
				if faultEscape && pagesSus[ca] {
					r.CrashLossWindow = true
					continue
				}
				page := lay.CounterLineIndex(ca) * mem.PageSize
				r.ReplayedPages = append(r.ReplayedPages, mem.Addr(page))
			}
			for ca, got := range res.perLine {
				if got > 0 && img.TCB.ExtDirty[ca] == 0 {
					if faultEscape && pagesSus[ca] {
						r.CrashLossWindow = true
						continue
					}
					page := lay.CounterLineIndex(ca) * mem.PageSize
					r.ReplayedPages = append(r.ReplayedPages, mem.Addr(page))
				}
			}
			slices.Sort(r.ReplayedPages)
		}
	}

	// Step 4: rebuild the Merkle tree from the recovered counters.
	overlay := overlayReader{base: imageReader{img.Image}, lines: encodeLines(res.lines)}
	counterAddrs := collectCounterAddrs(lay, img.Image.Store, res.lines)
	_, rebuilt := tree.Rebuild(overlay, counterAddrs)
	r.RebuiltRoot = rebuilt

	// Root-compare designs validate the rebuilt root against ROOTnew: a
	// mismatch proves an attack that cannot be located — or, with
	// media-damage evidence, acknowledged writes lost to the crash (these
	// designs cannot tell the two apart; that inability is the paper's
	// argument for cc-NVM's located mechanisms).
	if d.Caps.Replay == design.ReplayRootCompare {
		if rebuilt != img.TCB.RootNew && stepsClean {
			if faultEscape {
				r.CrashLossWindow = true
			} else {
				r.PotentialReplay = true
			}
		}
	}

	finishMediaReport(r, img, sus, res.implicated)
	return r
}

// finishMediaReport fills the media sections of the report: the stuck
// lines the device reports unreadable, and the suspect lines that were
// not implicated in any loss — healed (flushed whole, re-authenticated
// by HMAC replay, or rebuilt with the tree).
func finishMediaReport(r *Report, img *engine.CrashImage, sus, implicated map[mem.Addr]bool) {
	if !img.MediaFaults {
		return
	}
	for a := range img.Image.Stuck {
		r.MediaErrors = append(r.MediaErrors, a)
	}
	slices.Sort(r.MediaErrors)
	for _, s := range img.Suspects {
		if !implicated[s] && !img.Image.Stuck[s] {
			r.HealedLines = append(r.HealedLines, s)
		}
	}
	slices.Sort(r.HealedLines)
}

// suspectSet is the union of the controller's WPQ manifest and the
// device's stuck lines: every line whose content recovery may not trust
// to be whole. Nil when the image was taken without a fault model, which
// keeps the faultless paths bit-identical.
func suspectSet(img *engine.CrashImage) map[mem.Addr]bool {
	if !img.MediaFaults {
		return nil
	}
	m := make(map[mem.Addr]bool, len(img.Suspects)+len(img.Image.Stuck))
	for _, a := range img.Suspects {
		m[a] = true
	}
	for a := range img.Image.Stuck {
		m[a] = true
	}
	return m
}

// attackMismatches filters a step-1 mismatch list down to the entries
// that media damage cannot explain. A mismatch is media-attributable
// when the reported child is itself suspect (its content may be torn) or
// its parent is (the stored link may be torn) — VerifyAll reports a torn
// parent both at itself and at each child its stale links disown.
func attackMismatches(lay *mem.Layout, ms []bmt.Mismatch, sus map[mem.Addr]bool) []bmt.Mismatch {
	var attack []bmt.Mismatch
	for _, m := range ms {
		if sus[m.Addr] {
			continue
		}
		if m.Level < lay.TopLevel() {
			pl, pi, _ := lay.ParentOf(m.Level, m.Index)
			if sus[lay.NodeAddr(pl, pi)] {
				continue
			}
		}
		attack = append(attack, m)
	}
	return attack
}

// suspectCounterLines maps the suspect set onto the counter lines whose
// pages it can affect: a suspect data line implicates its page's counter
// line, a suspect HMAC line the counter line of the blocks it covers,
// and a suspect counter line itself. Tree nodes carry no per-page state.
func suspectCounterLines(lay *mem.Layout, sus map[mem.Addr]bool) map[mem.Addr]bool {
	if len(sus) == 0 {
		return nil
	}
	m := make(map[mem.Addr]bool, len(sus))
	for s := range sus {
		switch lay.RegionOf(s) {
		case mem.RegionData:
			m[lay.CounterLineOf(s)] = true
		case mem.RegionCounter:
			m[s] = true
		case mem.RegionHMAC:
			lineIdx := uint64(s-lay.HMACBase) / mem.LineSize
			da := mem.Addr(lineIdx * mem.HMACsPerLine * mem.LineSize)
			m[lay.CounterLineOf(da)] = true
		}
	}
	return m
}

// suspectRetries totals the recovered retries that landed on counter
// lines media damage can explain.
func suspectRetries(perLine map[mem.Addr]uint64, pagesSus map[mem.Addr]bool) uint64 {
	var n uint64
	for ca, r := range perLine {
		if pagesSus[ca] {
			n += r
		}
	}
	return n
}

// Apply writes the recovered counters and the rebuilt tree into the
// image and returns the TCB state a rebooted controller starts from.
// Call it only when the report is Clean (or after discarding located
// tampered blocks). The report must come from Recover on this image —
// Apply reuses its counter walk instead of walking the image again; a
// nil report makes Apply run Recover itself.
func Apply(img *engine.CrashImage, rep *Report) Recovered {
	rec, _ := ApplyInterrupted(img, rep, nil)
	return rec
}

// pendingWrite is a journaled counter-line write whose in-place persist
// may not have completed; the journal record holds the authoritative
// content.
type pendingWrite struct {
	addr mem.Addr
	line mem.Line
}

// readLine reads a line through the resume overlay: the journaled
// pending write shadows its possibly-torn in-place copy.
func readLine(img *engine.CrashImage, pend *pendingWrite, a mem.Addr) (mem.Line, bool) {
	if pend != nil && pend.addr == a {
		return pend.line, true
	}
	return img.Image.Read(a)
}

// planned is one line write of an Apply pass. Counter lines are
// journaled (a jPend record precedes the in-place write) because their
// content is the product of the retry walk and would be unrecoverable
// from a torn line; tree nodes and reverts are written bare — they are
// recomputed from the counters on every pass.
type planned struct {
	addr mem.Addr
	line mem.Line
	jrnl bool
}

// ApplyInterrupted is Apply with a power-failure seam: every persisted
// write — in-place lines and journal records alike — goes through a
// counting writer, and the write itr.After names is struck (torn under
// itr.Faults, dropped whole without) exactly as the device would strike
// a WPQ entry. It returns done=false when the interrupt fired; the
// caller re-enters recovery, which resumes from the journal. A nil itr
// (or itr.After 0) runs the pass to completion.
//
// The pass is idempotent and convergent: the write plan is filtered to
// lines whose current content differs from the target, so every
// completed write shrinks the next pass's plan, and the journaled
// pending write is re-issued without a fresh journal record when it
// matches the journal's current pending entry — rewriting it would
// re-arm the same strike point each reboot and livelock at stride two.
func ApplyInterrupted(img *engine.CrashImage, rep *Report, itr *Interrupt) (Recovered, bool) {
	cry := seccrypto.MustEngine(img.Keys)
	lay := img.Image.Layout
	tree := bmt.New(lay, cry)

	loaded, haveJournal := loadJournal(img)
	active := haveJournal && loaded.Active
	var pend *pendingWrite
	if active && loaded.PendingValid {
		pend = &pendingWrite{addr: loaded.PendingAddr, line: loaded.PendingLine}
	}

	if rep == nil {
		rep = Recover(img)
	}
	res := rep.res
	if res == nil {
		walk := recoverCounters(img, cry, pend)
		res = &walk
	}

	// Rebuild from the recovered counters plus the journaled pending
	// line: its in-place copy may be torn, the journal copy is whole.
	overlay := encodeLines(res.lines)
	counterAddrs := collectCounterAddrs(lay, img.Image.Store, res.lines)
	if pend != nil {
		if _, dup := overlay[pend.addr]; !dup {
			overlay[pend.addr] = pend.line
			found := false
			for _, ca := range counterAddrs {
				if ca == pend.addr {
					found = true
					break
				}
			}
			if !found {
				counterAddrs = append(counterAddrs, pend.addr)
			}
		}
	}
	nodes, root := tree.Rebuild(overlayReader{base: imageReader{img.Image}, lines: overlay}, counterAddrs)

	// The write plan, in deterministic order (striking the k-th write
	// must replay identically): the pending counter line first so an
	// interrupted write completes before new ground is journaled, the
	// remaining counter lines, the rebuilt tree nodes, then stored tree
	// nodes the rebuild did not cover, reverted to the level default —
	// a stored node with no surviving counter line under it carries
	// stale links that would contradict the rebuilt root. Lines already
	// holding their target content are skipped (a stuck line reads as
	// absent, so it is always rewritten, healing it as any write does);
	// the skip keeps every pass's plan a subset of the previous one.
	var plan []planned
	add := func(a mem.Addr, l mem.Line, jrnl bool) {
		if cur, ok := img.Image.Read(a); ok && cur == l {
			return
		}
		plan = append(plan, planned{addr: a, line: l, jrnl: jrnl})
	}
	if pend != nil {
		if _, dup := res.lines[pend.addr]; !dup {
			add(pend.addr, pend.line, true)
		}
	}
	for _, ca := range sortedLineKeys(res.lines) {
		cl := res.lines[ca]
		add(ca, cl.Encode(), true)
	}
	for _, a := range sortedNodeKeys(nodes) {
		add(a, nodes[a], false)
	}
	for _, a := range img.Image.Store.Range(lay.Bounds(mem.RegionTree)) {
		if _, covered := nodes[a]; !covered {
			lv, _ := lay.NodeAt(a)
			add(a, tree.DefaultNode(lv), false)
		}
	}
	if itr != nil {
		itr.Plan = len(plan)
	}

	ensureJournal(img)
	w := journalWriter{img: img, itr: itr}
	seq := uint64(0)
	if haveJournal {
		seq = loaded.Seq
	}
	hdr := journalRecord{
		Active:          true,
		Root:            root,
		ConsistentRoot:  rep.ConsistentRoot,
		PotentialReplay: rep.PotentialReplay,
		CrashLossWindow: rep.CrashLossWindow,
		Nwb:             rep.Nwb,
		Nretry:          rep.Nretry,
		Blocks:          rep.RecoveredBlocks,
		Lines:           rep.RecoveredLines,
	}

	// jBegin — unless this pass resumes one whose journal already
	// carries the same header.
	if !(active && sameHeader(loaded, hdr)) {
		seq++
		rec := hdr
		rec.Seq = seq
		if !w.writeSlot(rec) {
			return Recovered{}, false
		}
	}

	pendUsed := false
	for _, it := range plan {
		if it.jrnl {
			if pend != nil && !pendUsed && it.addr == pend.addr && it.line == pend.line {
				// Already journaled; go straight to the in-place write.
				pendUsed = true
			} else {
				seq++
				rec := hdr
				rec.Seq = seq
				rec.PendingValid = true
				rec.PendingAddr = it.addr
				rec.PendingLine = it.line
				if !w.writeSlot(rec) {
					return Recovered{}, false
				}
			}
		}
		if !w.writeLine(it.addr, it.line) {
			return Recovered{}, false
		}
	}

	// jCommit: the commit is the TCB root-register update — atomic, as
	// the paper's ROOTold/ROOTnew drain protocol makes register updates —
	// and the journal's inactive record persists with it. It still counts
	// as a persisted write (an interrupt can strike the window between
	// the last line write and the commit), but a strike leaves the
	// journal active and the registers untouched: the next boot resumes
	// an empty plan and re-commits. A commit record can therefore never
	// tear into a valid-but-inactive state over stale registers.
	seq++
	rec := hdr
	rec.Seq = seq
	rec.Active = false
	if w.strike() {
		return Recovered{}, false
	}
	buf := encodeSlot(rec)
	copy(JournalFormat.Slot(img.RecoveryJournal, rec.Seq), buf[:])
	img.TCB = engine.TCB{RootNew: root, RootOld: root, Nwb: 0}
	out := Recovered{TCB: img.TCB, tree: nodes}
	if rep.Lossless() && len(res.tampered) == 0 && len(res.lost) == 0 && !res.remajored {
		out.verdict = img.Clone()
	}
	return out, true
}

// sortedLineKeys and sortedNodeKeys order map iteration: the plan (and
// therefore which write an interrupt strikes) must be deterministic.
func sortedLineKeys(m map[mem.Addr]seccrypto.CounterLine) []mem.Addr {
	out := make([]mem.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

func sortedNodeKeys(m map[mem.Addr]mem.Line) []mem.Addr {
	out := make([]mem.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// counterResult is the outcome of the step-2 counter recovery walk.
type counterResult struct {
	lines      map[mem.Addr]seccrypto.CounterLine // counter lines advanced by retries
	nretry     uint64                             // total retries (Nretry)
	blocks     int                                // data blocks whose counters advanced
	tampered   []TamperedBlock                    // HMAC never matched, not media-attributable
	lost       []LostBlock                        // HMAC never matched, media-attributable
	perLine    map[mem.Addr]uint64                // per-counter-line retry totals (§4.4 extension)
	implicated map[mem.Addr]bool                  // suspect/stuck lines tied to a loss
	remajored  bool                               // a packed block moved the major under an authenticated raw block
}

// splitWalkMin is the data-walk length from which recoverCounters
// splits its walk across GOMAXPROCS goroutines; shorter walks stay on
// the calling goroutine. A part costs a goroutine and a crypto engine
// of its own, which holds no memo tables and is under 1 KB.
// BenchmarkCounterWalk (whole clean cc-NVM recoveries, 2-vCPU Intel
// Xeon with SHA-NI, medians of 5 to 10) puts the crossover between 512
// and 1 024 data lines: serial vs 2-way split is 0.29 vs 0.32 ms at
// 512 lines, 0.55 vs 0.47 ms at 1 024, 1.00 vs 0.86 ms at 2 048 and
// 1.97 vs 1.92 ms at 4 096.
const splitWalkMin = 1024

// recoverCounters walks every data block in the image, recovering its
// counter by HMAC retries bounded by the image's update limit — or, for
// a packed line (engine.CrashImage.PackedBlock), from the line itself.
// Under a fault model, blocks whose lines are stuck are lost outright, and
// blocks whose HMAC never matches are classified lost rather than
// tampered when the failure is covered by a suspect line — torn data,
// counter or HMAC content left by the partial ADR drain. pend, set when
// resuming an interrupted Apply, shadows the one counter line whose
// in-place write may be torn with its journaled copy. Walks of
// splitWalkMin lines or more run split (see splitCounterWalk).
func recoverCounters(img *engine.CrashImage, cry *seccrypto.Engine, pend *pendingWrite) counterResult {
	sus := suspectSet(img)
	addrs := dataWalkAddrs(img, sus)
	return splitCounterWalk(img, cry, pend, sus, addrs, walkParts(len(addrs)))
}

// walkParts is the part count of a counter walk over n data blocks. It
// is a variable only so the equivalence tests can force every count.
var walkParts = func(n int) int {
	if n < splitWalkMin {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// splitCounterWalk cuts the address-ordered walk into at most parts
// contiguous runs at counter-line (page) boundaries and walks them
// concurrently: the first on the calling goroutine with cry, every other
// on its own goroutine with its own crypto engine (an engine's scratch
// buffers are not safe for concurrent use). A page's counter line, its
// HMAC lines and every line a loss can implicate belong to exactly one
// run, so the per-run maps are disjoint and merging in address order —
// concatenated block lists, unioned maps, summed counts — yields the
// result of the serial walk for any part count.
func splitCounterWalk(img *engine.CrashImage, cry *seccrypto.Engine, pend *pendingWrite, sus map[mem.Addr]bool, addrs []mem.Addr, parts int) counterResult {
	runs := cutAtPages(img.Image.Layout, addrs, parts)
	res := make([]counterResult, len(runs))
	var wg sync.WaitGroup
	for i := 1; i < len(runs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = walkCounters(img, seccrypto.MustEngine(img.Keys), pend, sus, runs[i])
		}()
	}
	res[0] = walkCounters(img, cry, pend, sus, runs[0])
	wg.Wait()
	for _, r := range res[1:] {
		maps.Copy(res[0].lines, r.lines)
		maps.Copy(res[0].perLine, r.perLine)
		maps.Copy(res[0].implicated, r.implicated)
		res[0].nretry += r.nretry
		res[0].blocks += r.blocks
		res[0].tampered = append(res[0].tampered, r.tampered...)
		res[0].lost = append(res[0].lost, r.lost...)
		res[0].remajored = res[0].remajored || r.remajored
	}
	return res[0]
}

// cutAtPages splits addrs into at most parts non-empty contiguous runs
// of about equal length, moving each cut forward to the next counter-line
// boundary. It always returns at least one run (empty when addrs is).
func cutAtPages(lay *mem.Layout, addrs []mem.Addr, parts int) [][]mem.Addr {
	runs := make([][]mem.Addr, 0, max(parts, 1))
	lo := 0
	for k := 1; k < parts; k++ {
		cut := max(lo, k*len(addrs)/parts)
		for cut > 0 && cut < len(addrs) && lay.CounterLineOf(addrs[cut]) == lay.CounterLineOf(addrs[cut-1]) {
			cut++
		}
		if cut > lo && cut < len(addrs) {
			runs = append(runs, addrs[lo:cut])
			lo = cut
		}
	}
	return append(runs, addrs[lo:])
}

// walkCounters is the step-2 walk over one address-ordered run of data
// blocks; see recoverCounters.
func walkCounters(img *engine.CrashImage, cry *seccrypto.Engine, pend *pendingWrite, sus map[mem.Addr]bool, addrs []mem.Addr) counterResult {
	lay := img.Image.Layout
	res := counterResult{
		lines:      map[mem.Addr]seccrypto.CounterLine{},
		perLine:    map[mem.Addr]uint64{},
		implicated: map[mem.Addr]bool{},
	}
	stuck := img.Image.Stuck
	// The walk is address-ordered, so the 64 blocks of a page arrive
	// together and the 4 blocks of an HMAC line likewise: the decoded
	// counter line and the HMAC line are kept until the address leaves
	// them instead of being re-read and re-decoded per block.
	var (
		cl           seccrypto.CounterLine
		hl           mem.Line
		curCA, curHA = ^mem.Addr(0), ^mem.Addr(0) // unaligned: no line yet
		rawAuthed    bool                         // a raw block of the page matched its HMAC
	)
	for _, a := range addrs {
		ca := lay.CounterLineOf(a)
		slot := lay.CounterSlotOf(a)
		if ca != curCA {
			var ok bool
			if cl, ok = res.lines[ca]; !ok {
				raw, _ := readLine(img, pend, ca)
				cl = seccrypto.DecodeCounterLine(raw)
			}
			curCA, rawAuthed = ca, false
		}
		if _, ctr, packed, authed := img.PackedBlock(cry, a); packed {
			// A packed line carries its counter and HMAC inline: nothing
			// is retried, only the data line itself can lose the block,
			// and the unpacked counter lands in the page's counter line.
			switch {
			case img.MediaFaults && stuck[a]:
				res.lost = append(res.lost, LostBlock{Addr: a, Line: a, Cause: "stuck-data"})
				res.implicated[a] = true
			case !authed && img.MediaFaults && sus[a]:
				res.lost = append(res.lost, LostBlock{Addr: a, Line: a, Cause: "torn-data"})
				res.implicated[a] = true
			case !authed:
				res.tampered = append(res.tampered, TamperedBlock{Addr: a})
			default:
				// A raw block already authenticated under the old major
				// no longer opens at its applied counter.
				res.remajored = res.remajored || rawAuthed && cl.Major != ctr>>seccrypto.MinorBits
				cl.Major = ctr >> seccrypto.MinorBits
				cl.Minors[slot] = uint8(ctr & seccrypto.MinorMax)
				res.lines[ca] = cl
				res.blocks++
			}
			continue
		}
		ha, hslot := lay.HMACLineOf(a)
		if img.MediaFaults {
			if cause, line := stuckCause(stuck, a, ca, ha); cause != "" {
				res.lost = append(res.lost, LostBlock{Addr: a, Line: line, Cause: cause})
				res.implicated[line] = true
				continue
			}
		}
		ct, _ := img.Image.Read(a)
		if ha != curHA {
			hl, curHA = hmacLine(img, cry, ha), ha
		}
		stored := seccrypto.GetHMAC(hl, hslot)
		base := cl.Counter(slot)
		found := false
		for retry := uint64(0); retry <= img.UpdateLimit; retry++ {
			if cry.DataHMAC(a, base+retry, ct) != stored {
				continue
			}
			if retry > 0 {
				if uint64(cl.Minors[slot])+retry > seccrypto.MinorMax {
					// A legitimate lag never crosses a minor overflow
					// (overflows persist immediately): treat as tampered.
					break
				}
				res.nretry += retry
				res.perLine[ca] += retry
				res.blocks++
				cl.Minors[slot] += uint8(retry)
				res.lines[ca] = cl
			}
			found = true
			break
		}
		if found {
			rawAuthed = true
			continue
		}
		if img.MediaFaults && (sus[a] || sus[ca] || sus[ha]) {
			line, cause := ca, "torn-counter"
			if !sus[ca] {
				if sus[a] {
					line, cause = a, "torn-data"
				} else {
					line, cause = ha, "torn-hmac"
				}
			}
			res.lost = append(res.lost, LostBlock{Addr: a, Line: line, Cause: cause})
			for _, s := range []mem.Addr{a, ca, ha} {
				if sus[s] {
					res.implicated[s] = true
				}
			}
			continue
		}
		res.tampered = append(res.tampered, TamperedBlock{Addr: a, StoredCounter: base})
	}
	return res
}

// dataWalkAddrs lists the data blocks the counter-recovery walk must
// visit: every data line in the store plus, under a fault model, every
// suspect data line absent from it — a dropped first write leaves no
// stored line, but its block may still carry non-virgin counter or HMAC
// evidence that must be classified as loss, not skipped.
func dataWalkAddrs(img *engine.CrashImage, sus map[mem.Addr]bool) []mem.Addr {
	lay := img.Image.Layout
	st := img.Image.Store
	out := st.Range(lay.Bounds(mem.RegionData))
	if !img.MediaFaults {
		return out
	}
	extra := false
	for s := range sus {
		if lay.RegionOf(s) != mem.RegionData {
			continue
		}
		if _, stored := st.Read(s); !stored {
			out = append(out, s)
			extra = true
		}
	}
	if extra {
		slices.Sort(out)
	}
	return out
}

// stuckCause classifies a data block covered by a stuck line, returning
// the cause label and the unreadable line, or "" when none of the
// block's lines is stuck.
func stuckCause(stuck map[mem.Addr]bool, a, ca, ha mem.Addr) (string, mem.Addr) {
	switch {
	case stuck[a]:
		return "stuck-data", a
	case stuck[ca]:
		return "stuck-counter", ca
	case stuck[ha]:
		return "stuck-hmac", ha
	}
	return "", 0
}

// hmacLine reads HMAC line ha, synthesizing the never-written default
// when it is absent.
func hmacLine(img *engine.CrashImage, cry *seccrypto.Engine, ha mem.Addr) mem.Line {
	hl, ok := img.Image.Read(ha)
	if !ok {
		hl = engine.DefaultHMACLine(cry, img.Image.Layout, ha)
	}
	return hl
}

// collectCounterAddrs lists every counter line that exists in the store
// or was recovered; Rebuild needs the complete set.
func collectCounterAddrs(lay *mem.Layout, st *mem.Store, recovered map[mem.Addr]seccrypto.CounterLine) []mem.Addr {
	out := st.Range(lay.Bounds(mem.RegionCounter))
	for ca := range recovered {
		if _, stored := st.Read(ca); !stored {
			out = append(out, ca)
		}
	}
	return out
}

// treeAddrs lists the stored counter lines and tree nodes in ascending
// order: the lines step 1 verifies.
func treeAddrs(lay *mem.Layout, st *mem.Store) []mem.Addr {
	return append(st.Range(lay.Bounds(mem.RegionCounter)), st.Range(lay.Bounds(mem.RegionTree))...)
}

// imageReader adapts an nvm.Image to bmt.Reader: reads go through the
// image so stuck lines present as absent (default content) instead of
// leaking their unreadable stored bytes into verification or rebuild.
type imageReader struct {
	img *nvm.Image
}

func (r imageReader) Read(a mem.Addr) (mem.Line, bool) { return r.img.Read(a) }

var _ bmt.Reader = imageReader{}

type overlayReader struct {
	base  bmt.Reader
	lines map[mem.Addr]mem.Line
}

func (o overlayReader) Read(a mem.Addr) (mem.Line, bool) {
	if l, ok := o.lines[mem.Align(a)]; ok {
		return l, true
	}
	return o.base.Read(a)
}

func encodeLines(m map[mem.Addr]seccrypto.CounterLine) map[mem.Addr]mem.Line {
	out := make(map[mem.Addr]mem.Line, len(m))
	for a, cl := range m {
		out[a] = cl.Encode()
	}
	return out
}

var _ bmt.Reader = overlayReader{}
