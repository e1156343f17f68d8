// crashrecovery walks the full threat-model matrix of §4.4: a
// persistent key-value-store-like workload runs on cc-NVM, the power
// fails mid-epoch, an adversary with full access to the NVM DIMM
// tampers with it, and recovery must detect — and wherever the paper
// claims it can, locate — the attack. The same replay is then run
// against Osiris Plus to show the difference the consistent in-NVM
// Merkle tree makes: Osiris detects but cannot locate, so all data is
// dropped.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"

	"ccnvm"
)

// kvTrace emulates a small persistent KV store: records live in a 2 MiB
// table; updates read the record line, modify it and write it back, and
// a log region is appended sequentially — update-heavy with high
// temporal locality, the access pattern the paper's introduction
// motivates.
func kvTrace(n int, seed int64) []ccnvm.Op {
	var ops []ccnvm.Op
	const tablePages = 512
	logHead := ccnvm.Addr(tablePages * 4096)
	rng := seed
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int((rng >> 33) % int64(mod))
		if v < 0 {
			v = -v
		}
		return v
	}
	for i := 0; i < n; i++ {
		rec := ccnvm.Addr(next(tablePages*64)) * 64
		// Read-modify-write the record.
		ops = append(ops,
			ccnvm.Op{Kind: ccnvm.Load, Addr: rec, Gap: 6, Dep: true},
			ccnvm.Op{Kind: ccnvm.Store, Addr: rec, Gap: 4},
			// Append to the log.
			ccnvm.Op{Kind: ccnvm.Store, Addr: logHead, Gap: 8},
		)
		logHead += 64
	}
	return ops
}

func main() {
	fmt.Println("=== scenario 1: clean crash, full recovery ===")
	m := machine(ccnvm.DesignCCNVM)
	img := crash(m, 12000)
	rep := ccnvm.Recover(img)
	fmt.Printf("recovered %d stalled blocks (Nretry=%d == Nwb=%d), clean=%v\n",
		rep.RecoveredBlocks, rep.Nretry, rep.Nwb, rep.Clean())
	ccnvm.ApplyRecovery(img, rep)
	fmt.Println("-> tree rebuilt; the KV store reopens with every committed record intact")

	fmt.Println("\n=== scenario 2: spoofed record after the crash ===")
	m = machine(ccnvm.DesignCCNVM)
	img = crash(m, 12000)
	victim := firstData(img)
	must(ccnvm.SpoofData(img, victim))
	rep = ccnvm.Recover(img)
	fmt.Printf("located %d tampered block(s); Located()=%v\n", len(rep.Tampered), rep.Located())
	fmt.Printf("-> record %#x is discarded, the other %d NVM lines survive\n",
		uint64(victim), img.Image.Store.Len()-1)

	fmt.Println("\n=== scenario 3: spliced records ===")
	m = machine(ccnvm.DesignCCNVM)
	img = crash(m, 12000)
	a, b := firstData(img), lastData(img)
	must(ccnvm.SpliceData(img, a, b))
	rep = ccnvm.Recover(img)
	fmt.Printf("located %d tampered blocks (want both %#x and %#x)\n",
		len(rep.Tampered), uint64(a), uint64(b))

	fmt.Println("\n=== scenario 4: replayed counter line (the 'normal' replay) ===")
	m = machine(ccnvm.DesignCCNVM)
	// Snapshot an early persistent state as the adversary's stash.
	m.Run("kv", kvTrace(6000, 7))
	old := m.Snapshot()
	m.Run("kv", kvTrace(6000, 8))
	img = m.Crash()
	must(ccnvm.ReplayCounterLine(img, old, firstData(img)))
	rep = ccnvm.Recover(img)
	fmt.Printf("step 1 located %d tree mismatch(es): %v\n", len(rep.TreeMismatches), rep.Located())

	fmt.Println("\n=== scenario 5: Figure 4's data replay inside the DS window ===")
	for _, design := range []string{ccnvm.DesignCCNVM, ccnvm.DesignOsiris} {
		m = machine(design)
		m.Run("kv", kvTrace(8000, 7))
		hot := ccnvm.Addr(512 << 20) // a record far from the table
		m.Run("kv", writeBackTail(hot, 1))
		old = m.Snapshot()
		m.Run("kv", writeBackTail(hot, 2))
		img = m.Crash()
		must(ccnvm.ReplayBlock(img, old, hot))
		rep = ccnvm.Recover(img)
		fmt.Printf("%-12s detected=%v located=%v dataDropped=%v",
			ccnvm.DesignLabel(design), !rep.Clean(), rep.Located(), rep.DataDropped())
		if design == ccnvm.DesignCCNVM {
			fmt.Printf("  (Nwb=%d vs Nretry=%d)", rep.Nwb, rep.Nretry)
		}
		fmt.Println()
	}
	fmt.Println("-> both designs detect the replay; neither can locate it — the paper's §4.3")
	fmt.Println("   bounds this window to the dirty address queue (<=42 counters, 0.01% of NVM)")

	fmt.Println("\n=== scenario 5b: the same replay against the §4.4 extension ===")
	m = machine(ccnvm.DesignCCNVMExt)
	m.Run("kv", kvTrace(8000, 7))
	hotExt := ccnvm.Addr(512 << 20)
	m.Run("kv", writeBackTail(hotExt, 1))
	old = m.Snapshot()
	m.Run("kv", writeBackTail(hotExt, 2))
	img = m.Crash()
	must(ccnvm.ReplayBlock(img, old, hotExt))
	rep = ccnvm.Recover(img)
	fmt.Printf("cc-NVM+Ext   detected=%v located=%v page=%#x\n", !rep.Clean(), rep.Located(), uint64(rep.ReplayedPages[0]))
	fmt.Println("-> the extra persistent registers pin the replay to one page: only it is dropped")

	fmt.Println("\n=== scenario 6: the same crash without crash consistency ===")
	m = machine(ccnvm.DesignWoCC)
	// A hot record updated dozens of times: without consistency the NVM
	// counter lags far beyond any recovery bound.
	hot := ccnvm.Addr(0)
	for i := 0; i < 40; i++ {
		m.Run("kv", writeBackTail(hot, 1))
	}
	img = m.Crash()
	rep = ccnvm.Recover(img)
	fmt.Printf("w/o CC: clean=%v, unrecoverable blocks=%d\n", rep.Clean(), len(rep.Tampered))
	fmt.Println("-> staleness is indistinguishable from an attack: all data must be dropped")
}

func machine(design string) *ccnvm.Machine {
	m, err := ccnvm.NewMachine(ccnvm.Config{Design: design})
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func crash(m *ccnvm.Machine, ops int) *ccnvm.CrashImage {
	_, img := m.RunWithCrash("kv", kvTrace(ops, 7), ops*3)
	return img
}

// writeBackTail forces n write-backs of victim via L1/L2 set conflicts.
func writeBackTail(victim ccnvm.Addr, n int) []ccnvm.Op {
	var ops []ccnvm.Op
	for i := 0; i < n; i++ {
		ops = append(ops, ccnvm.Op{Kind: ccnvm.Store, Addr: victim, Gap: 2})
		for k := 1; k <= 10; k++ {
			ops = append(ops, ccnvm.Op{Kind: ccnvm.Load, Addr: victim + ccnvm.Addr(k*32<<10), Gap: 2})
		}
	}
	return ops
}

// dataAddrs lists the image's written data lines in ascending order.
func dataAddrs(img *ccnvm.CrashImage) []ccnvm.Addr {
	as := img.Image.Store.Range(0, ccnvm.Addr(img.Image.Layout.DataBytes))
	if len(as) == 0 {
		log.Fatal("no data in image")
	}
	return as
}

func firstData(img *ccnvm.CrashImage) ccnvm.Addr { return dataAddrs(img)[0] }

func lastData(img *ccnvm.CrashImage) ccnvm.Addr {
	as := dataAddrs(img)
	return as[len(as)-1]
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
