package twoslot_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ccnvm/internal/kv"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/twoslot"
)

// formats are the three record kinds that persist through the package.
var formats = []twoslot.Format{nvm.RemapFormat, recovery.JournalFormat, kv.ManifestFormat}

// record seals a slot of f with a payload pattern derived from seq.
func record(f twoslot.Format, seq uint64) []byte {
	b := make([]byte, f.SlotLen)
	for i := len(f.Magic); i < f.SealOff; i++ {
		b[i] = byte(seq*31 + uint64(i))
	}
	f.Seal(b, seq)
	return b
}

// repairConverges checks that one Repair of table under its ruling c
// leaves no torn slot and the same winning record.
func repairConverges(t *testing.T, f twoslot.Format, table []byte, c twoslot.Choice) {
	t.Helper()
	var want []byte
	if c.Winner != nil {
		want = bytes.Clone(c.Winner[:f.SealOff+8])
	}
	f.Repair(table, c)
	c2 := f.Choose(table, nil)
	if c2.AnyTorn() || c2.Seq != c.Seq || (c2.Winner == nil) != (want == nil) ||
		(want != nil && !bytes.Equal(c2.Winner[:f.SealOff+8], want)) {
		t.Fatalf("%q: repair did not converge: torn %v, seq %d -> %d", f.Magic, c2.Torn, c.Seq, c2.Seq)
	}
}

// TestTearEveryChunk is the crash-mid-commit property for every record
// kind. Record 6 rules from slot 0 and commit 7 goes to slot 1, over
// either the committed record 5 or a never-written slot. A crash after
// any prefix of the commit's 64-byte chunk writes, or a word-mix tear of
// any one chunk under every mask, must leave a table that rules record 6
// or record 7, never anything else, and flags slot 1 torn exactly when
// it is neither empty (word 0 zero) nor a whole record.
func TestTearEveryChunk(t *testing.T) {
	for _, f := range formats {
		other, next := record(f, 6), record(f, 7)
		for _, prior := range [][]byte{record(f, 5), make([]byte, f.SlotLen)} {
			check := func(slot []byte, chunk, mask int) {
				table := append(bytes.Clone(other), slot...)
				want, wantTorn := other, true
				switch {
				case bytes.Equal(slot, next):
					want, wantTorn = next, false
				case bytes.Equal(slot, prior), binary.LittleEndian.Uint64(slot) == 0:
					wantTorn = false
				}
				c := f.Choose(table, nil)
				if c.Seq != twoslot.Seq(want) || !bytes.Equal(c.Winner, want) || c.Torn != [2]bool{false, wantTorn} {
					t.Fatalf("%q over seq %d, chunk %d mask %#x: ruled seq %d torn %v, want seq %d torn [false %v]",
						f.Magic, twoslot.Seq(prior), chunk, mask, c.Seq, c.Torn, twoslot.Seq(want), wantTorn)
				}
				repairConverges(t, f, table, c)
			}
			chunks := f.SlotLen / mem.LineSize
			for n := 0; n <= chunks; n++ {
				slot := bytes.Clone(prior)
				copy(slot[:n*mem.LineSize], next)
				check(slot, n, 0) // crash after n whole chunks
				for mask := 0; n < chunks && mask < 256; mask++ {
					mixed := nvm.MixWords(mem.Line(prior[n*mem.LineSize:]), mem.Line(next[n*mem.LineSize:]), byte(mask))
					torn := bytes.Clone(slot)
					copy(torn[n*mem.LineSize:], mixed[:])
					check(torn, n, mask)
				}
			}
		}
	}
}

// FuzzTable rules arbitrary tables of every kind, either slot optionally
// re-sealed (the seal has no key): nothing may panic, a winner re-seals
// to its own sealed bytes, and one Repair converges.
func FuzzTable(f *testing.F) {
	for i, fm := range formats {
		table := append(record(fm, 6), record(fm, 7)...)
		f.Add(uint8(i), table, false, false)
		torn := bytes.Clone(table)
		torn[fm.SlotLen+9] ^= 1
		f.Add(uint8(i), torn, false, true)
	}
	f.Fuzz(func(t *testing.T, kind uint8, b []byte, seal0, seal1 bool) {
		fm := formats[int(kind)%len(formats)]
		fm.Choose(b, nil)
		table := make([]byte, fm.TableLen())
		copy(table, b)
		for i, seal := range []bool{seal0, seal1} {
			if slot := table[i*fm.SlotLen : (i+1)*fm.SlotLen]; seal {
				fm.Seal(slot, twoslot.Seq(slot))
			}
		}
		c := fm.Choose(table, nil)
		if c.Winner != nil {
			resealed := bytes.Clone(c.Winner)
			if fm.Seal(resealed, c.Seq); !bytes.Equal(resealed[:fm.SealOff+8], c.Winner[:fm.SealOff+8]) {
				t.Fatalf("%q: winner seq %d re-seals to other bytes", fm.Magic, c.Seq)
			}
		}
		repairConverges(t, fm, table, c)
	})
}
