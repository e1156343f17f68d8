package recovery

import (
	"encoding/hex"
	"testing"

	"ccnvm/internal/mem"
)

func sampleRecord(seq uint64, active bool) journalRecord {
	rec := journalRecord{
		Active:          active,
		Seq:             seq,
		ConsistentRoot:  "new",
		PotentialReplay: seq%2 == 0,
		CrashLossWindow: seq%3 == 0,
		Nwb:             41,
		Nretry:          41,
		Blocks:          7,
		Lines:           3,
		PendingValid:    true,
		PendingAddr:     mem.Addr(0x51000040),
	}
	for i := range rec.Root {
		rec.Root[i] = byte(seq) + byte(i)
	}
	for i := range rec.PendingLine {
		rec.PendingLine[i] = ^byte(i)
	}
	return rec
}

// TestJournalSlotRoundTrip: records round-trip through a slot, and
// sampleRecord(3, true) encodes to exactly the bytes the encoder wrote
// before the two-slot frame moved to internal/twoslot.
func TestJournalSlotRoundTrip(t *testing.T) {
	want := "4343524a010302020300000000000000290000000000000029000000000000000700000003000000030405060708090a0b0c0d0e0f101112131415161718191a" +
		"1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041424000005100000000fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0" +
		"efeeedecebeae9e8e7e6e5e4e3e2e1e0dfdedddcdbdad9d8d7d6d5d4d3d2d1d0cfcecdcccbcac9c8c7c6c5c4c3c2c1c07434ebfa000000000000000000000000"
	if buf := encodeSlot(sampleRecord(3, true)); hex.EncodeToString(buf[:]) != want {
		t.Fatalf("slot bytes changed:\n got %x\nwant %s", buf, want)
	}
	for _, rec := range []journalRecord{
		sampleRecord(3, true),
		sampleRecord(4, false),
		{Seq: 1, ConsistentRoot: "old"},
		{}, // zero record must still round-trip
	} {
		if buf := encodeSlot(rec); decodeSlot(buf[:]) != rec {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", decodeSlot(buf[:]), rec)
		}
	}
}
