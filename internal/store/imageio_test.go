package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ccnvm/internal/design"
	"ccnvm/internal/design/names"
	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
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

// richImage is a crash image with every variable-length field set —
// stuck lines, suspects, a recovery journal and a remap table — and
// more line records than one chunk of the codec holds, so both passes
// refill their buffer in the middle of a record.
func richImage(t testing.TB) *engine.CrashImage {
	img := crashedImage(t, names.CCNVM)
	lay := img.Image.Layout
	lo, hi := lay.Bounds(mem.RegionData)
	for a := lo; a < hi; a += mem.LineSize {
		img.Image.Store.Write(a, mem.Line{byte(a >> 6), byte(a >> 14), 7})
	}
	img.MediaFaults = true
	img.Suspects = []mem.Addr{lay.CounterBase, lay.HMACBase + mem.LineSize}
	img.Image.Stuck = map[mem.Addr]bool{mem.LineSize: true, lay.TreeBase: true}
	img.RecoveryJournal = bytes.Repeat([]byte{0x5A}, recovery.JournalFormat.TableLen())
	img.Image.RemapTable = bytes.Repeat([]byte{0xA5}, nvm.RemapTableLen)
	return img
}

// TestLoadImageMatchesDecode: the file path and the byte path are one
// codec. For every registered design's crash image, and for one with
// every variable-length field set that spans several chunks, SaveImage
// writes what EncodeImage returns, and LoadImage of the file and
// DecodeImage of its bytes give equal stores that re-encode to the
// file's bytes.
func TestLoadImageMatchesDecode(t *testing.T) {
	type namedImage struct {
		name string
		img  *engine.CrashImage
	}
	var cases []namedImage
	for _, d := range design.All() {
		cases = append(cases, namedImage{d.Name, crashedImage(t, d.Name)})
	}
	cases = append(cases, namedImage{"rich", richImage(t)})
	sideband := false
	for _, tc := range cases {
		sideband = sideband || len(tc.img.Sideband) > 0
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nvm.img")
			if err := store.SaveImage(path, tc.img); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := store.EncodeImage(tc.img)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, enc) {
				t.Fatalf("SaveImage wrote %d bytes that differ from EncodeImage's %d", len(file), len(enc))
			}
			fromFile, err := store.LoadImage(path)
			if err != nil {
				t.Fatal(err)
			}
			fromBytes, err := store.DecodeImage(file)
			if err != nil {
				t.Fatal(err)
			}
			if !fromFile.Image.Store.Equal(fromBytes.Image.Store) || !fromFile.Image.Store.Equal(tc.img.Image.Store) {
				t.Fatal("LoadImage and DecodeImage hold different lines")
			}
			for _, got := range []*engine.CrashImage{fromFile, fromBytes} {
				re, err := store.EncodeImage(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(re, file) {
					t.Fatal("a loaded image re-encodes to different bytes")
				}
			}
		})
	}
	if !sideband {
		t.Fatal("no design's crash image carries a sideband")
	}
}

// TestLoadImageRefusesCorruptFiles: LoadImage refuses damaged and
// resealed-but-malformed files with ErrImageCorrupt. The file is the
// page index's worst case, lines alone in their segments, with the
// last two records swapped in one case: a decoder that built pages
// before it checked the order would pay 11.8 KB per line before the
// refusal, far past FuzzDecodeImage's allocation bound.
func TestLoadImageRefusesCorruptFiles(t *testing.T) {
	good := sparseImage(t)
	img, err := store.DecodeImage(good)
	if err != nil {
		t.Fatal(err)
	}
	// The line records end the body, right behind their count.
	const rec = 8 + mem.LineSize
	last := len(good) - 8 - rec
	countOff := last - (img.Image.Store.Len()-1)*rec - 8
	for _, tc := range []struct {
		name string
		edit func(b []byte) []byte
	}{
		{"truncated by one byte", func(b []byte) []byte { return b[:len(b)-1] }},
		{"seal bit flipped", func(b []byte) []byte { b[len(b)-8] ^= 1; return b }},
		{"two records swapped", func(b []byte) []byte {
			var tmp [rec]byte
			copy(tmp[:], b[last:])
			copy(b[last:], b[last-rec:last])
			copy(b[last-rec:], tmp[:])
			return reseal(b)
		}},
		{"record count too large", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[countOff:], uint64(img.Image.Store.Len())+1)
			return reseal(b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.edit(append([]byte(nil), good...))
			path := filepath.Join(t.TempDir(), "nvm.img")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			grew := allocBytes(func() { _, err = store.LoadImage(path) })
			if !errors.Is(err, store.ErrImageCorrupt) {
				t.Fatalf("err = %v, want ErrImageCorrupt", err)
			}
			if limit := 8*uint64(len(b)) + 1<<10; grew > limit {
				t.Fatalf("refusing a %d-byte file allocated %d bytes, over %d", len(b), grew, limit)
			}
		})
	}
}

// TestSaveImageLeavesNoTemp: a save that fails — the rename onto a
// directory, or an image the encoder refuses — leaves no temp file.
func TestSaveImageLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	taken := filepath.Join(dir, "taken")
	if err := os.Mkdir(taken, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveImage(taken, crashedImage(t, names.CCNVM)); err == nil {
		t.Fatal("saved an image over a directory")
	}
	if err := store.SaveImage(filepath.Join(dir, "nil.img"), nil); err == nil {
		t.Fatal("saved a nil image")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "taken" {
		var left []string
		for _, e := range entries {
			left = append(left, e.Name())
		}
		t.Fatalf("failed saves left %v behind", left)
	}
}

// TestSaveImageFailureKeepsOldImage: a save over an existing image that
// fails while writing the new one leaves the old image in place and
// loadable, and removes its temp file.
func TestSaveImageFailureKeepsOldImage(t *testing.T) {
	const full = "/dev/full" // every write to it fails with ENOSPC
	if _, err := os.Stat(full); err != nil {
		t.Skip("no", full, "to fail writes on")
	}
	path := filepath.Join(t.TempDir(), "nvm.img")
	if err := store.SaveImage(path, crashedImage(t, names.CCNVM)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(full, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveImage(path, richImage(t)); err == nil {
		t.Fatal("a save whose writes fail succeeded")
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed save left its temp file (%v)", err)
	}
	got, err := store.LoadImage(path)
	if err != nil {
		t.Fatalf("the old image no longer loads: %v", err)
	}
	if re, err := store.EncodeImage(got); err != nil || !bytes.Equal(re, want) {
		t.Fatalf("the old image changed (%v)", err)
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
// than 0 or 1, line records out of address order, a recovery journal or
// remap table that is neither absent nor whole — so whatever decodes
// re-encodes to the same file.
func TestImageDecodeRefusesNonCanonical(t *testing.T) {
	img := crashedImage(t, "ccnvm")
	// The fixture has no variable-length fields (TestImageDecodeBoundsHostileCounts
	// checks that), so the media-fault flag follows the two map counts.
	varOff := 8 + 4 + 4 + len(img.Design) + 8 + 8 + len(img.Keys.AES) + len(img.Keys.HMAC) + 2*mem.LineSize + 8
	first := varOff + 25 + 8
	for _, tc := range []struct {
		want  string
		image func(img *engine.CrashImage)
		edit  func(b []byte)
	}{
		{"media-fault flag 2", nil, func(b []byte) { b[varOff+8] = 2 }},
		{"out of address order", nil, func(b []byte) {
			copy(b[first+8+mem.LineSize:first+16+mem.LineSize], b[first:first+8])
		}},
		{"recovery journal of 192 bytes", func(img *engine.CrashImage) { img.RecoveryJournal = make([]byte, 192) }, nil},
		{"remap table of 640 bytes", func(img *engine.CrashImage) { img.Image.RemapTable = make([]byte, nvm.RemapSlotLen) }, nil},
	} {
		img := crashedImage(t, "ccnvm")
		if tc.image != nil {
			tc.image(img)
		}
		b, err := store.EncodeImage(img)
		if err != nil {
			t.Fatal(err)
		}
		if tc.edit != nil {
			tc.edit(b)
		}
		_, err = store.DecodeImage(reseal(b))
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
