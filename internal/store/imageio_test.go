package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/store"
)

func crashedImage(t testing.TB, design string) *engine.CrashImage {
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

// reseal recomputes the trailing seal, which is unkeyed: anyone who
// can write the image file can make an edited record check out.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint64(b[len(b)-8:], mem.Checksum(b[:len(b)-8]))
	return b
}

// resealFNV seals b the way version-2 files were sealed: FNV-1a 64.
func resealFNV(b []byte) []byte {
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

// TestImageDecodeRefusesNonCanonical: bytes EncodeImage never writes
// are refused even when correctly sealed — a media-fault flag other
// than 0 or 1, and line records out of address order — so whatever
// decodes re-encodes to the same file.
func TestImageDecodeRefusesNonCanonical(t *testing.T) {
	img := crashedImage(t, "ccnvm")
	good, err := store.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture has no variable-length fields (TestImageDecodeBoundsHostileCounts
	// checks that), so the media-fault flag follows the two map counts.
	varOff := 8 + 4 + 4 + len(img.Design) + 8 + 8 + len(img.Keys.AES) + len(img.Keys.HMAC) + 2*mem.LineSize + 8
	first := varOff + 25 + 8
	for _, tc := range []struct {
		want string
		edit func(b []byte)
	}{
		{"media-fault flag 2", func(b []byte) { b[varOff+8] = 2 }},
		{"out of address order", func(b []byte) {
			copy(b[first+8+mem.LineSize:first+16+mem.LineSize], b[first:first+8])
		}},
	} {
		b := append([]byte(nil), good...)
		tc.edit(b)
		_, err := store.DecodeImage(reseal(b))
		if !errors.Is(err, store.ErrImageCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want ErrImageCorrupt naming %q", err, tc.want)
		}
	}
}

// TestImageDecodeRefusesOldVersion: version 1 files carry a field this
// format no longer has, and version 2 files (and every record inside
// them) are sealed with FNV-1a, so both are refused by number — never
// misparsed, and never reported as a bad seal.
func TestImageDecodeRefusesOldVersion(t *testing.T) {
	good, err := store.EncodeImage(crashedImage(t, "ccnvm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version uint32
		seal    func([]byte) []byte
	}{
		{1, reseal},
		{2, resealFNV},
	} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[8:], tc.version)
		_, err := store.DecodeImage(tc.seal(b))
		want := fmt.Sprintf("unsupported version %d", tc.version)
		if !errors.Is(err, store.ErrImageCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d header: err = %v, want %s", tc.version, err, want)
		}
	}
}

// FuzzDecodeImage feeds the image decoder arbitrary bytes and, with
// sealed set, bytes whose trailing seal is recomputed — the seal is
// unkeyed, so mutations of a valid image that anyone can re-seal reach
// the parser. Every input must either decode and re-encode to exactly
// its own bytes, or be refused with ErrImageCorrupt; and decoding may
// allocate at most 8x the input beyond a refusal's error value and a
// fixed page-index charge per 256 KiB leaf its decoded lines touch (see
// leafIndexBytes).
func FuzzDecodeImage(f *testing.F) {
	good, err := store.EncodeImage(crashedImage(f, "ccnvm"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, false)
	f.Add(good, true)
	f.Add(good[:len(good)/2], true)
	f.Add([]byte("CCNVMIMG"), false)
	f.Add(sparseImage(f), false)
	f.Fuzz(func(t *testing.T, b []byte, sealed bool) {
		if sealed && len(b) >= 8 {
			b = reseal(append([]byte(nil), b...))
		}
		const errorSlack = 1 << 10
		var img *engine.CrashImage
		var err error
		grew := allocBytes(func() { img, err = store.DecodeImage(b) })
		limit := 8*uint64(len(b)) + errorSlack
		if err != nil {
			if !errors.Is(err, store.ErrImageCorrupt) {
				t.Fatalf("refusal is not ErrImageCorrupt: %v", err)
			}
			if grew > limit {
				t.Fatalf("refusing a %d-byte input allocated %d bytes", len(b), grew)
			}
			return
		}
		leaves := map[mem.Addr]bool{}
		for _, a := range img.Image.Store.Addrs() {
			leaves[a/leafSpan] = true
		}
		if grew > limit+leafIndexBytes*uint64(len(leaves)) {
			t.Fatalf("decoding a %d-byte image of %d lines in %d leaves allocated %d bytes",
				len(b), img.Image.Store.Len(), len(leaves), grew)
		}
		re, err := store.EncodeImage(img)
		if err != nil {
			t.Fatalf("decoded image does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("decoded image re-encodes to different bytes (%d vs %d)", len(re), len(b))
		}
	})
}

// leafIndexBytes is the most a decoded store's page index may cost per
// distinct 256 KiB leaf its lines touch, beyond the lines themselves
// (which the 8x bound covers): the 2064 B leaf node, 2304 B once Go
// adds its malloc header and rounds to a size class, plus the 8 KiB
// directory of the 256 MiB segment above it, 9472 B the same way, and
// 64 B for the segment's slot in the growing top-level slice — which a
// sparse image pays once per leaf. A sparse image needs those nodes
// whatever its encoded size: one line alone in its segment is a 72-byte
// record that costs 11.9 KB (sparseImage is that worst case). The charge is fixed here, not measured
// from mem.Store, so a store that grows its nodes fails this target.
const (
	leafSpan       = 256 << 10
	leafIndexBytes = 2304 + 9472 + 64
)

// sparseImage encodes the page index's worst case: a crash image of a
// 64 GiB store holding 256 lines, each alone in its 256 MiB segment.
func sparseImage(t testing.TB) []byte {
	st, err := store.Open(store.Options{Capacity: 64 << 30, Params: engine.Params{UpdateLimit: 8, QueueEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	img := st.Crash()
	lines := &mem.Store{}
	lo, hi := img.Image.Layout.Bounds(mem.RegionData)
	for a := lo; a < hi && lines.Len() < 256; a += 256 << 20 {
		lines.Write(a, mem.Line{byte(lines.Len())})
	}
	img.Image.Store = lines
	b, err := store.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// allocBytes is the heap bytes fn allocates: the least of three runs,
// since the process-wide counter also sees whatever the fuzzing
// engine's own goroutines allocate meanwhile. fn must be deterministic.
func allocBytes(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
