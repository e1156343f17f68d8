package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"ccnvm/internal/engine"
	"ccnvm/internal/mem"
	"ccnvm/internal/nvm"
	"ccnvm/internal/recovery"
	"ccnvm/internal/seccrypto"
)

// Crash-image file codec: the daemon's answer to "the machine lost
// power" is a process exit, so the simulated NVM contents must survive
// as a file for the restarted process to Reboot from. The format is a
// deterministic versioned binary record (sorted maps, little-endian,
// trailing 8-byte CRC-32C seal, mem.Checksum zero-extended) — encoding
// the same image twice yields identical bytes, which the round-trip
// tests rely on.
//
// Version 3 changed the seal from FNV-64a to CRC-32C, both the file's
// own and that of every record the image carries (remap slots, the
// recovery journal, KV frames and manifest slots). Those records reach
// a process only inside an image file, so refusing older versions by
// number refuses them all.
//
// MediaLog is not persisted: it is the torture harness's ground truth,
// which recovery must never read (only Suspects travels). Images that
// carry one are refused so a harness cannot silently lose its oracle
// evidence across a save/load cycle.

const (
	imageMagic   = "CCNVMIMG"
	imageVersion = 3
)

// ErrImageCorrupt reports a crash-image file that fails structural or
// checksum validation.
var ErrImageCorrupt = errors.New("store: crash image file corrupt")

// chunkSize bounds the buffer a file is encoded or decoded through.
const chunkSize = 1 << 20

// lineRec is the encoded size of one line record: address, then line.
const lineRec = 8 + mem.LineSize

// EncodeImage serializes a crash image to deterministic bytes.
func EncodeImage(img *engine.CrashImage) ([]byte, error) {
	return encodeImage(nil, img)
}

// encodeImage is the one encoder. With w nil it returns the image's
// bytes; otherwise it streams them to w through one chunk-sized buffer,
// sealing each chunk before it goes, and returns the first write error.
func encodeImage(w io.Writer, img *engine.CrashImage) ([]byte, error) {
	if img == nil || img.Image == nil || img.Image.Layout == nil {
		return nil, errors.New("store: nil crash image")
	}
	if img.MediaLog != nil {
		return nil, errors.New("store: refusing to encode an image with a harness media log")
	}
	var (
		b    []byte
		sum  uint64 // seal of the bytes already written to w
		werr error
	)
	// spill writes b out once it cannot take another line record, or at
	// the end; without w, b keeps every byte.
	spill := func(end bool) {
		if w == nil || !end && cap(b)-len(b) >= lineRec {
			return
		}
		sum = mem.ChecksumUpdate(sum, b)
		if werr == nil {
			_, werr = w.Write(b)
		}
		b = b[:0]
	}
	addrs := img.Image.Store.Addrs()
	// Room for a typical header and every record: the whole image in
	// memory, and no more than it or a chunk when streaming.
	size := 1<<16 + len(addrs)*lineRec
	if w != nil {
		size = min(size, chunkSize)
	}
	b = make([]byte, 0, size)
	b = append(b, imageMagic...)
	b = binary.LittleEndian.AppendUint32(b, imageVersion)
	b = appendString(b, img.Design)
	b = binary.LittleEndian.AppendUint64(b, img.Image.Layout.DataBytes)
	b = binary.LittleEndian.AppendUint64(b, img.UpdateLimit)
	b = append(b, img.Keys.AES[:]...)
	b = append(b, img.Keys.HMAC[:]...)
	b = append(b, img.TCB.RootNew[:]...)
	b = append(b, img.TCB.RootOld[:]...)
	b = binary.LittleEndian.AppendUint64(b, img.TCB.Nwb)
	b = appendAddrU64Map(b, img.TCB.ExtDirty)
	b = appendAddrByteMap(b, img.Sideband)
	if img.MediaFaults {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendAddrs(b, img.Suspects)
	b = appendBytes(b, img.RecoveryJournal)
	b = appendAddrs(b, sortedKeys(img.Image.Stuck))
	b = appendBytes(b, img.Image.RemapTable)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(addrs)))
	for _, a := range addrs {
		spill(false)
		l, _ := img.Image.Store.Read(a)
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
		b = append(b, l[:]...)
	}
	b = binary.LittleEndian.AppendUint64(b, mem.ChecksumUpdate(sum, b))
	spill(true)
	return b, werr
}

// DecodeImage parses bytes produced by EncodeImage, and only those:
// anything that would not re-encode to the same bytes (unsorted or
// repeated addresses, a flag byte other than 0 or 1, a journal or
// remap table other than absent or whole) is refused with
// ErrImageCorrupt like any other damage.
func DecodeImage(b []byte) (*engine.CrashImage, error) {
	return decodeImage(bytes.NewReader(b), int64(len(b)))
}

// decodeImage is the one decoder, over size bytes of r, in two passes
// through one chunk buffer. Pass 1 checks magic and version, then
// streams the seal over the body while it parses the header and checks
// every line record's address: aligned, inside the layout, strictly
// ascending. Magic and version come first: a file of another version
// carries another seal, and must be refused by number, not as corrupt
// bytes. Only an image that passes all of it reaches pass 2, which
// re-reads the record section into mem.BuildLineMap, so a refused image
// never pays for the store's page index.
func decodeImage(r io.ReaderAt, size int64) (*engine.CrashImage, error) {
	if size < int64(len(imageMagic)+4+8) {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrImageCorrupt, size)
	}
	d := &decoder{r: r, body: size - 8, buf: make([]byte, min(chunkSize, size)), seal: true}
	if string(d.take(8)) != imageMagic {
		return nil, corrupt(errors.New("bad magic"))
	}
	if v := d.u32(); v != imageVersion {
		return nil, corrupt(fmt.Errorf("unsupported version %d", v))
	}
	img, n, err := d.header()
	if err == nil {
		err = d.lines(img.Image.Layout, n, nil)
	}
	if d.fail != nil {
		return nil, d.fail
	}
	if !d.sealed() {
		return nil, corrupt(errors.New("checksum mismatch"))
	}
	if err != nil {
		return nil, corrupt(err)
	}
	// The records end the body, so they start n records before its end.
	d.seek(d.body - int64(n)*lineRec)
	st := mem.BuildLineMap(func(add func(mem.Addr, mem.Line)) { err = d.lines(img.Image.Layout, n, add) })
	if d.fail != nil {
		return nil, d.fail
	}
	if err != nil {
		return nil, corrupt(err)
	}
	img.Image.Store = st
	return img, nil
}

// header parses everything before the line records and returns the
// image without its store and the record count, checked to fill the
// rest of the body exactly.
func (d *decoder) header() (*engine.CrashImage, int, error) {
	img := &engine.CrashImage{}
	img.Design = d.str()
	capacity := d.u64()
	img.UpdateLimit = d.u64()
	var keys seccrypto.Keys
	copy(keys.AES[:], d.take(len(keys.AES)))
	copy(keys.HMAC[:], d.take(len(keys.HMAC)))
	img.Keys = keys
	copy(img.TCB.RootNew[:], d.take(mem.LineSize))
	copy(img.TCB.RootOld[:], d.take(mem.LineSize))
	img.TCB.Nwb = d.u64()
	img.TCB.ExtDirty = d.addrU64Map()
	img.Sideband = d.addrByteMap()
	switch mf := d.take(1)[0]; mf {
	case 0:
	case 1:
		img.MediaFaults = true
	default:
		return nil, 0, fmt.Errorf("media-fault flag %d", mf)
	}
	img.Suspects = d.addrs()
	img.RecoveryJournal = d.bytes()
	stuck := d.addrs()
	remap := d.bytes()
	n := d.count(d.u64(), lineRec)
	if d.err != nil {
		return nil, 0, d.err
	}
	if left := d.left() - int64(n)*lineRec; left != 0 {
		return nil, 0, fmt.Errorf("%d trailing bytes", left)
	}
	// A short remap table would pass for a finite pool that the next
	// commit slices past.
	if n := len(img.RecoveryJournal); n != 0 && n != recovery.JournalFormat.TableLen() {
		return nil, 0, fmt.Errorf("recovery journal of %d bytes", n)
	}
	if n := len(remap); n != 0 && n != nvm.RemapTableLen {
		return nil, 0, fmt.Errorf("remap table of %d bytes", n)
	}
	lay, err := mem.NewLayout(capacity)
	if err != nil {
		return nil, 0, fmt.Errorf("layout: %v", err)
	}
	// The seal is unkeyed, so every address is attacker-controlled: one
	// that is unaligned or outside the layout is refused before it
	// reaches the store or the stuck set.
	for i, a := range stuck {
		if !validLineAddr(lay, a) {
			return nil, 0, fmt.Errorf("stuck line %#x outside the layout", uint64(a))
		}
		if i > 0 && a <= stuck[i-1] {
			return nil, 0, fmt.Errorf("stuck line %#x out of address order", uint64(a))
		}
	}
	img.Image = &nvm.Image{Layout: lay, RemapTable: remap}
	if len(stuck) > 0 {
		img.Image.Stuck = make(map[mem.Addr]bool, len(stuck))
		for _, a := range stuck {
			img.Image.Stuck[a] = true
		}
	}
	return img, n, nil
}

// lines reads n line records, checks each address, and hands the line
// to add when add is set. Pass 1 calls it without add; pass 2 repeats
// the checks, so add never sees an order pass 1 did not.
func (d *decoder) lines(lay *mem.Layout, n int, add func(mem.Addr, mem.Line)) error {
	var prev mem.Addr
	for i := 0; i < n; i++ {
		rec := d.take(lineRec)
		if d.err != nil || d.fail != nil {
			return d.err
		}
		a := mem.Addr(binary.LittleEndian.Uint64(rec))
		if !validLineAddr(lay, a) {
			return fmt.Errorf("line %#x outside the layout", uint64(a))
		}
		if i > 0 && a <= prev {
			return fmt.Errorf("line %#x out of address order", uint64(a))
		}
		prev = a
		if add != nil {
			add(a, mem.Line(rec[8:lineRec]))
		}
	}
	return nil
}

// corrupt wraps the reason an image is malformed in ErrImageCorrupt.
func corrupt(err error) error { return fmt.Errorf("%w: %v", ErrImageCorrupt, err) }

// validLineAddr reports whether a is a line-aligned address inside one
// of the layout's regions.
func validLineAddr(lay *mem.Layout, a mem.Addr) bool {
	return a == mem.Align(a) && lay.RegionOf(a) != mem.RegionInvalid
}

// SaveImage writes the image to path durably and atomically: it streams
// the encoding into path.tmp, syncs it, renames it over path and syncs
// the directory, so a host crash leaves either the old file or the
// whole new one. On any error the temp file is removed.
func SaveImage(path string, img *engine.CrashImage) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // f may be closed already; a second Close is harmless
			os.Remove(tmp)
		}
	}()
	if _, err = encodeImage(f, img); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadImage reads an image file written by SaveImage, streaming it
// through the decoder DecodeImage uses.
func LoadImage(path string) (*engine.CrashImage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return decodeImage(f, fi.Size())
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendAddrs(b []byte, as []mem.Addr) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(as)))
	for _, a := range as {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
	}
	return b
}

func appendAddrU64Map(b []byte, m map[mem.Addr]uint64) []byte {
	keys := sortedKeys(m)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, a := range keys {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
		b = binary.LittleEndian.AppendUint64(b, m[a])
	}
	return b
}

func appendAddrByteMap(b []byte, m map[mem.Addr]byte) []byte {
	keys := sortedKeys(m)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, a := range keys {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
		b = append(b, m[a])
	}
	return b
}

func sortedKeys[V any](m map[mem.Addr]V) []mem.Addr {
	keys := make([]mem.Addr, 0, len(m))
	for a := range m {
		keys = append(keys, a)
	}
	slices.Sort(keys)
	return keys
}

// decoder is a bounds-checked little-endian cursor over an image file's
// body, everything before its 8-byte seal, read through one chunk
// buffer; the first overrun poisons it and every later read returns
// zeros. While seal is set each byte read extends sum. The checksum is
// unkeyed, so a length prefix is attacker-controlled: every prefix goes
// through count before anything is allocated or looped over.
type decoder struct {
	r    io.ReaderAt
	body int64  // bytes before the seal
	next int64  // file offset of the first byte not yet read into buf
	buf  []byte // the chunk buffer
	win  []byte // its unread bytes, which end at next
	seal bool
	sum  uint64
	err  error // the first overrun or malformed field
	fail error // the first read error: the file, not its contents
}

// offset is the file offset of the next unread byte.
func (d *decoder) offset() int64 { return d.next - int64(len(d.win)) }

// left is how many body bytes are unread.
func (d *decoder) left() int64 { return d.body - d.offset() }

// fill moves the unread bytes to the front of buf and reads as much of
// the body behind them as fits.
func (d *decoder) fill() {
	k := copy(d.buf, d.win)
	m := int(min(int64(len(d.buf)-k), d.body-d.next))
	got, err := d.r.ReadAt(d.buf[k:k+m], d.next)
	if got < m && d.fail == nil {
		d.fail = fmt.Errorf("store: read crash image at offset %d: %w", d.next+int64(got), err)
	}
	if d.seal {
		d.sum = mem.ChecksumUpdate(d.sum, d.buf[k:k+got])
	}
	d.next += int64(got)
	d.win = d.buf[:k+got]
}

// take returns the next n bytes, n at most the buffer's length; the
// slice is valid until the next read.
func (d *decoder) take(n int) []byte {
	if len(d.win) < n && d.err == nil && d.fail == nil {
		if int64(n) > d.left() {
			d.err = fmt.Errorf("read past end at offset %d", d.offset())
		} else {
			d.fill()
		}
	}
	if len(d.win) < n || d.err != nil {
		return make([]byte, n)
	}
	p := d.win[:n]
	d.win = d.win[n:]
	return p
}

// read returns the next n bytes in a new slice; n has been through
// count, so it may exceed the buffer.
func (d *decoder) read(n int) []byte {
	p := make([]byte, n)
	for dst := p; len(dst) > 0 && d.err == nil && d.fail == nil; {
		if len(d.win) == 0 {
			d.fill()
		}
		k := copy(dst, d.win)
		d.win, dst = d.win[k:], dst[k:]
	}
	return p
}

// sealed reads the rest of the body into the seal and reports whether
// the file's trailing seal matches it.
func (d *decoder) sealed() bool {
	for d.next < d.body && d.fail == nil {
		d.win = nil
		d.fill()
	}
	var tail [8]byte
	if got, err := d.r.ReadAt(tail[:], d.body); got < len(tail) && d.fail == nil {
		d.fail = fmt.Errorf("store: read crash image seal: %w", err)
	}
	return d.fail == nil && d.sum == binary.LittleEndian.Uint64(tail[:])
}

// seek starts pass 2 at file offset off, with the seal off.
func (d *decoder) seek(off int64) {
	d.next, d.win, d.seal = off, nil, false
}

// count validates a length prefix of n elements, each at least elem
// encoded bytes: a count the remaining input cannot hold poisons the
// decoder. It returns 0 once poisoned, so callers allocate and loop over
// at most what the input actually carries.
func (d *decoder) count(n uint64, elem int) int {
	if left := d.left(); d.err == nil && n > uint64(left/int64(elem)) {
		d.err = fmt.Errorf("count %d at offset %d exceeds the %d bytes left", n, d.offset(), left)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) u32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }
func (d *decoder) str() string { return string(d.read(d.count(uint64(d.u32()), 1))) }

func (d *decoder) bytes() []byte {
	n := d.count(uint64(d.u32()), 1)
	if n == 0 {
		return nil
	}
	return d.read(n)
}

func (d *decoder) addrs() []mem.Addr {
	n := d.count(uint64(d.u32()), 8)
	if n == 0 {
		return nil
	}
	as := make([]mem.Addr, n)
	for i := range as {
		as[i] = mem.Addr(d.u64())
	}
	return as
}

func (d *decoder) addrU64Map() map[mem.Addr]uint64 {
	n := d.count(uint64(d.u32()), 16)
	if n == 0 {
		return nil
	}
	m := make(map[mem.Addr]uint64, n)
	var prev mem.Addr
	for i := 0; i < n; i++ {
		a := mem.Addr(d.u64())
		d.ascending(i, prev, a)
		prev = a
		m[a] = d.u64()
	}
	return m
}

func (d *decoder) addrByteMap() map[mem.Addr]byte {
	n := d.count(uint64(d.u32()), 9)
	if n == 0 {
		return nil
	}
	m := make(map[mem.Addr]byte, n)
	var prev mem.Addr
	for i := 0; i < n; i++ {
		a := mem.Addr(d.u64())
		d.ascending(i, prev, a)
		prev = a
		m[a] = d.take(1)[0]
	}
	return m
}

// ascending poisons the decoder when map key a (the i-th) does not
// follow prev: EncodeImage writes map keys sorted and unique, so any
// other order is not its output and could not re-encode to the same
// bytes.
func (d *decoder) ascending(i int, prev, a mem.Addr) {
	if i > 0 && a <= prev && d.err == nil {
		d.err = fmt.Errorf("map key %#x out of order at offset %d", uint64(a), d.offset())
	}
}
