package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

func crashedImage(t *testing.T, design string) *engine.CrashImage {
	t.Helper()
	st, err := store.Open(store.Options{
		Design:   design,
		Capacity: 1 << 20,
		Params:   engine.Params{UpdateLimit: 8, QueueEntries: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		var l mem.Line
		l[0], l[1] = byte(i), byte(i>>4)
		if err := st.Write(mem.Addr((i%12)*4096), l); err != nil {
			t.Fatal(err)
		}
	}
	return st.Crash()
}

func TestImageEncodeDeterministic(t *testing.T) {
	img := crashedImage(t, "ccnvm")
	b1, err := store.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := store.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoding the same image twice differs")
	}
}

func TestImageRoundTripAllFields(t *testing.T) {
	for _, d := range []string{"ccnvm", "ccnvm-ext", "osiris", "sc"} {
		t.Run(d, func(t *testing.T) {
			img := crashedImage(t, d)
			b, err := store.EncodeImage(img)
			if err != nil {
				t.Fatal(err)
			}
			got, err := store.DecodeImage(b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Design != img.Design || got.UpdateLimit != img.UpdateLimit {
				t.Fatalf("identity fields differ: %s/%d vs %s/%d",
					got.Design, got.UpdateLimit, img.Design, img.UpdateLimit)
			}
			if got.Keys != img.Keys {
				t.Fatal("keys differ")
			}
			if got.TCB.RootNew != img.TCB.RootNew || got.TCB.RootOld != img.TCB.RootOld || got.TCB.Nwb != img.TCB.Nwb {
				t.Fatal("TCB registers differ")
			}
			if len(got.TCB.ExtDirty) != len(img.TCB.ExtDirty) {
				t.Fatalf("ExtDirty %d entries, want %d", len(got.TCB.ExtDirty), len(img.TCB.ExtDirty))
			}
			for a, n := range img.TCB.ExtDirty {
				if got.TCB.ExtDirty[a] != n {
					t.Fatalf("ExtDirty[%#x] = %d, want %d", uint64(a), got.TCB.ExtDirty[a], n)
				}
			}
			if got.Image.Layout.DataBytes != img.Image.Layout.DataBytes {
				t.Fatal("capacity differs")
			}
			if !got.Image.Store.Equal(img.Image.Store) {
				t.Fatal("NVM contents differ")
			}
			// And the round-tripped image must re-encode identically.
			b2, err := store.EncodeImage(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatal("re-encode differs")
			}
		})
	}
}

func TestImageDecodeRejectsCorruption(t *testing.T) {
	img := crashedImage(t, "ccnvm")
	b, err := store.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	// Every 97th byte: exhaustive would be slow, strided is plenty to
	// prove the checksum covers the whole record.
	for off := 0; off < len(b); off += 97 {
		c := append([]byte(nil), b...)
		c[off] ^= 0x20
		if _, err := store.DecodeImage(c); !errors.Is(err, store.ErrImageCorrupt) {
			t.Fatalf("flip at %d decoded (err=%v)", off, err)
		}
	}
	if _, err := store.DecodeImage(b[:10]); !errors.Is(err, store.ErrImageCorrupt) {
		t.Fatal("truncated image decoded")
	}
}

func TestSaveLoadImageFile(t *testing.T) {
	img := crashedImage(t, "ccnvm")
	path := filepath.Join(t.TempDir(), "nvm.img")
	if err := store.SaveImage(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := store.LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	st, rep, err := store.Reboot(got, store.Options{})
	if err != nil {
		t.Fatalf("reboot from loaded image: %v (%+v)", err, rep)
	}
	var want mem.Line
	want[0], want[1] = 39, 39>>4
	l, err := st.Read(mem.Addr((39 % 12) * 4096))
	if err != nil {
		t.Fatal(err)
	}
	if l != want {
		t.Fatal("reloaded store serves wrong data")
	}
}

// reseal recomputes the trailing FNV-64a, which is unkeyed: anyone who
// can write the image file can make an edited record check out.
func reseal(b []byte) []byte {
	h := fnv.New64a()
	h.Write(b[:len(b)-8])
	binary.LittleEndian.PutUint64(b[len(b)-8:], h.Sum64())
	return b
}

// TestImageDecodeBoundsHostileCounts plants a hostile value in each
// length prefix and in a line address of a correctly checksummed image.
// Decoding must refuse it without allocating or looping in proportion
// to the claimed count, and before an address outside the layout (or
// inside a line) reaches the store.
func TestImageDecodeBoundsHostileCounts(t *testing.T) {
	img := crashedImage(t, "ccnvm")
	if len(img.TCB.ExtDirty)+len(img.Sideband)+len(img.Suspects)+len(img.RecoveryJournal)+
		len(img.Image.Stuck)+len(img.Image.RemapTable) != 0 {
		t.Fatal("fixture grew variable-length fields; the prefix offsets below assume none")
	}
	good, err := store.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of the design-string prefix, of the first prefix after the
	// fixed-size fields (capacity, N, keys, two roots, Nwb), and of the
	// line-count prefix and the first line's address behind them.
	strOff := 8 + 4 // magic, version
	varOff := strOff + 4 + len(img.Design) + 8 + 8 + len(img.Keys.AES) + len(img.Keys.HMAC) + 2*mem.LineSize + 8
	linesOff := varOff + 25
	if n := binary.LittleEndian.Uint64(good[linesOff:]); n != uint64(img.Image.Store.Len()) {
		t.Fatalf("line-count prefix not at offset %d (read %d)", linesOff, n)
	}
	for _, tc := range []struct {
		name  string
		off   int
		width int
		val   uint64
	}{
		{"design", strOff, 4, 0xFFFFFFF0},
		{"ext-dirty", varOff, 4, 0xFFFFFFF0},
		{"sideband", varOff + 4, 4, 0xFFFFFFF0},
		{"suspects", varOff + 9, 4, 0xFFFFFFF0}, // one MediaFaults byte precedes it
		{"journal", varOff + 13, 4, 0xFFFFFFF0},
		{"stuck", varOff + 17, 4, 0xFFFFFFF0},
		{"remap", varOff + 21, 4, 0xFFFFFFF0},
		{"lines", linesOff, 8, 1 << 40},
		{"line-address-far", linesOff + 8, 8, 1 << 62},
		{"line-address-past-tree", linesOff + 8, 8, img.Image.Layout.TotalBytes()},
		{"line-address-unaligned", linesOff + 8, 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			if tc.width == 4 {
				binary.LittleEndian.PutUint32(b[tc.off:], uint32(tc.val))
			} else {
				binary.LittleEndian.PutUint64(b[tc.off:], tc.val)
			}
			reseal(b)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := store.DecodeImage(b)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, store.ErrImageCorrupt) {
				t.Fatalf("hostile %s decoded (err=%v)", tc.name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(b)) {
				t.Fatalf("decoding a %d-byte file allocated %d bytes", len(b), grew)
			}
		})
	}
	// The fixture has no stuck line to overwrite, so a hostile one is
	// encoded into the file instead.
	for _, a := range []mem.Addr{1 << 62, 8} {
		img.Image.Stuck = map[mem.Addr]bool{a: true}
		b, err := store.EncodeImage(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.DecodeImage(b); !errors.Is(err, store.ErrImageCorrupt) {
			t.Fatalf("stuck line at %#x decoded (err=%v)", uint64(a), err)
		}
	}
}

// TestImageDecodeRefusesOldVersion: version 1 files carry a field this
// format no longer has, so they are refused by number, not misparsed.
func TestImageDecodeRefusesOldVersion(t *testing.T) {
	b, err := store.EncodeImage(crashedImage(t, "ccnvm"))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[8:], 1)
	_, err = store.DecodeImage(reseal(b))
	if !errors.Is(err, store.ErrImageCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 header: err = %v, want unsupported version 1", err)
	}
}
