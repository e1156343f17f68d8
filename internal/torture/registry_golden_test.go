package torture

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
	"ccnvm/internal/trace"
)

// TestRegistryTortureGolden pins one torture seed bit-for-bit across the
// design-dispatch refactor: every design runs a fixed trace to a crash,
// gets each attack kind injected, and is recovered; the resulting crash
// image (content hash) and the full recovery report are compared against
// a golden file generated before the registry existed. Any change to how
// engines are built or recovery is dispatched that alters a single
// persisted byte or report field shows up as a diff here. Regenerate
// (only after an intentional behaviour change) with
//
//	go test ./internal/torture/ -run TestRegistryTortureGolden -golden.update
func TestRegistryTortureGolden(t *testing.T) {
	var lines []string
	for _, d := range DesignNames() {
		for _, atk := range []string{"none", "spoof", "counter-replay", "data-replay", "tree-spoof"} {
			c := Cell{Design: d, Workload: "hot", Seed: 7, Ops: 200, CrashAt: 120, Attack: atk, N: 4}
			lines = append(lines, cellDigest(t, c))
		}
		// One media-fault cell per design: the fault model and the
		// loss-vs-attack classification ride the same dispatch seams.
		fc := Cell{Design: d, Workload: "mixed", Seed: 7, Ops: 200, CrashAt: 133, Attack: "none",
			FaultSeed: 99, Torn: true, ADRBudget: 4, Stuck: 1}
		lines = append(lines, cellDigest(t, fc))
	}
	got := []byte(strings.Join(lines, "\n") + "\n")

	path := filepath.Join("testdata", "registry.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -golden.update): %v", err)
	}
	if string(got) != string(want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("registry digest diverges from pre-refactor golden at line %d:\n got %s\nwant %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("registry digest diverges from pre-refactor golden (length)")
	}
}

// cellDigest executes one cell exactly as RunCell does (the shared trace
// drive, mid-trace snapshot, attack injection, recovery) and condenses the
// crash image and recovery report into one comparable line.
func cellDigest(t *testing.T, c Cell) string {
	t.Helper()
	c = c.normalized()
	ops, err := GenOps(c.Workload, c.Seed, c.Ops)
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := BuildEngine(c.Design, engine.Params{UpdateLimit: c.N, QueueEntries: c.M}, c.faultModel())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewReference(mem.MustLayout(Capacity), seccrypto.DefaultKeys())
	snapAt := c.CrashAt / 2
	var snap *nvm.Image
	var snapWrites map[mem.Addr]uint64
	driveTrace(eng, ops[:c.CrashAt], ref, func(i int, _ trace.Op, now int64) (int64, bool) {
		if i == snapAt {
			snap = eng.(interface{ NVMSnapshot() *nvm.Image }).NVMSnapshot()
			snapWrites = ref.WriteCounts()
		}
		return now, true
	})
	img := eng.Crash()
	if _, _, err := injectAttack(c, img, snap, snapWrites, ref); err != nil {
		t.Fatal(err)
	}
	rep := recovery.Recover(img)

	h := sha256.New()
	for _, a := range img.Image.Store.Addrs() {
		l, _ := img.Image.Read(a)
		var ab [8]byte
		binary.LittleEndian.PutUint64(ab[:], uint64(a))
		h.Write(ab[:])
		h.Write(l[:])
	}
	h.Write(img.TCB.RootNew[:])
	h.Write(img.TCB.RootOld[:])
	return fmt.Sprintf("%s img=%x store=%d nwb=%d root=%q nretry=%d blocks=%d lines=%d mism=%d tamp=%d pages=%d replay=%v lost=%d errs=%d window=%v rebuilt=%x",
		c.String(), h.Sum(nil)[:8], img.Image.Store.Len(), img.TCB.Nwb, rep.ConsistentRoot,
		rep.Nretry, rep.RecoveredBlocks, rep.RecoveredLines,
		len(rep.TreeMismatches), len(rep.Tampered), len(rep.ReplayedPages), rep.PotentialReplay,
		len(rep.LostBlocks), len(rep.MediaErrors), rep.CrashLossWindow, rep.RebuiltRoot[:8])
}
