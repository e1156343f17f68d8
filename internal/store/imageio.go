package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
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

// EncodeImage serializes a crash image to deterministic bytes.
func EncodeImage(img *engine.CrashImage) ([]byte, error) {
	if img == nil || img.Image == nil || img.Image.Layout == nil {
		return nil, errors.New("store: nil crash image")
	}
	if img.MediaLog != nil {
		return nil, errors.New("store: refusing to encode an image with a harness media log")
	}
	b := make([]byte, 0, 1<<16)
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
	addrs := img.Image.Store.Addrs()
	b = slices.Grow(b, 8+len(addrs)*(8+mem.LineSize)+8)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(addrs)))
	for _, a := range addrs {
		l, _ := img.Image.Store.Read(a)
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
		b = append(b, l[:]...)
	}
	b = binary.LittleEndian.AppendUint64(b, mem.Checksum(b))
	return b, nil
}

// DecodeImage parses bytes produced by EncodeImage, and only those:
// anything that would not re-encode to the same bytes (unsorted or
// repeated addresses, a flag byte other than 0 or 1, a journal or
// remap table other than absent or whole) is refused with
// ErrImageCorrupt like any other damage. Magic and version are checked
// before the seal: a file of another version carries another seal, and
// must be refused by number, not as corrupt bytes.
func DecodeImage(b []byte) (*engine.CrashImage, error) {
	if len(b) < len(imageMagic)+4+8 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrImageCorrupt, len(b))
	}
	body, tail := b[:len(b)-8], b[len(b)-8:]
	r := &reader{b: body}
	if string(r.take(8)) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrImageCorrupt)
	}
	if v := r.u32(); v != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrImageCorrupt, v)
	}
	if mem.Checksum(body) != binary.LittleEndian.Uint64(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrImageCorrupt)
	}
	img := &engine.CrashImage{}
	img.Design = r.str()
	capacity := r.u64()
	img.UpdateLimit = r.u64()
	var keys seccrypto.Keys
	copy(keys.AES[:], r.take(len(keys.AES)))
	copy(keys.HMAC[:], r.take(len(keys.HMAC)))
	img.Keys = keys
	copy(img.TCB.RootNew[:], r.take(mem.LineSize))
	copy(img.TCB.RootOld[:], r.take(mem.LineSize))
	img.TCB.Nwb = r.u64()
	img.TCB.ExtDirty = r.addrU64Map()
	img.Sideband = r.addrByteMap()
	switch mf := r.take(1)[0]; mf {
	case 0:
	case 1:
		img.MediaFaults = true
	default:
		return nil, fmt.Errorf("%w: media-fault flag %d", ErrImageCorrupt, mf)
	}
	img.Suspects = r.addrs()
	img.RecoveryJournal = r.bytes()
	stuck := r.addrs()
	remap := r.bytes()
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImageCorrupt, r.err)
	}
	// A short remap table would pass for a finite pool that the next
	// commit slices past.
	if n := len(img.RecoveryJournal); n != 0 && n != recovery.JournalFormat.TableLen() {
		return nil, fmt.Errorf("%w: recovery journal of %d bytes", ErrImageCorrupt, n)
	}
	if n := len(remap); n != 0 && n != nvm.RemapTableLen {
		return nil, fmt.Errorf("%w: remap table of %d bytes", ErrImageCorrupt, n)
	}
	lay, err := mem.NewLayout(capacity)
	if err != nil {
		return nil, fmt.Errorf("%w: layout: %v", ErrImageCorrupt, err)
	}
	// The seal is unkeyed, so every address is attacker-controlled: one
	// that is unaligned or outside the layout is refused before it
	// reaches the store or the stuck set.
	for i, a := range stuck {
		if !validLineAddr(lay, a) {
			return nil, fmt.Errorf("%w: stuck line %#x outside the layout", ErrImageCorrupt, uint64(a))
		}
		if i > 0 && a <= stuck[i-1] {
			return nil, fmt.Errorf("%w: stuck line %#x out of address order", ErrImageCorrupt, uint64(a))
		}
	}
	// The line records are validated whole before the store is built, so
	// a refused image never pays for the store's page index.
	const lineRec = 8 + mem.LineSize
	n := r.count(r.u64(), lineRec)
	recs := r.take(n * lineRec)
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImageCorrupt, r.err)
	}
	if len(r.b) != r.off {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrImageCorrupt, len(r.b)-r.off)
	}
	for i := 0; i < n; i++ {
		a := mem.Addr(binary.LittleEndian.Uint64(recs[i*lineRec:]))
		if !validLineAddr(lay, a) {
			return nil, fmt.Errorf("%w: line %#x outside the layout", ErrImageCorrupt, uint64(a))
		}
		if i > 0 && a <= mem.Addr(binary.LittleEndian.Uint64(recs[(i-1)*lineRec:])) {
			return nil, fmt.Errorf("%w: line %#x out of address order", ErrImageCorrupt, uint64(a))
		}
	}
	st := &mem.Store{}
	for i := 0; i < n; i++ {
		rec := recs[i*lineRec:]
		st.Write(mem.Addr(binary.LittleEndian.Uint64(rec)), mem.Line(rec[8:lineRec]))
	}
	img.Image = &nvm.Image{Layout: lay, Store: st, RemapTable: remap}
	if len(stuck) > 0 {
		img.Image.Stuck = make(map[mem.Addr]bool, len(stuck))
		for _, a := range stuck {
			img.Image.Stuck[a] = true
		}
	}
	return img, nil
}

// validLineAddr reports whether a is a line-aligned address inside one
// of the layout's regions.
func validLineAddr(lay *mem.Layout, a mem.Addr) bool {
	return a == mem.Align(a) && lay.RegionOf(a) != mem.RegionInvalid
}

// SaveImage writes the image to path atomically (temp file + rename).
func SaveImage(path string, img *engine.CrashImage) error {
	b, err := EncodeImage(img)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadImage reads an image file written by SaveImage.
func LoadImage(path string) (*engine.CrashImage, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeImage(b)
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

// reader is a bounds-checked little-endian cursor; the first overrun
// poisons it and every later read returns zeros. The checksum is
// unkeyed, so a length prefix is attacker-controlled: every prefix goes
// through count before anything is allocated or looped over.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("read past end at offset %d", r.off)
		}
		return make([]byte, n)
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// count validates a length prefix of n elements, each at least elem
// encoded bytes: a count the remaining input cannot hold poisons the
// reader. It returns 0 once poisoned, so callers allocate and loop over
// at most what the input actually carries.
func (r *reader) count(n uint64, elem int) int {
	if left := len(r.b) - r.off; r.err == nil && n > uint64(left/elem) {
		r.err = fmt.Errorf("count %d at offset %d exceeds the %d bytes left", n, r.off, left)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *reader) str() string { return string(r.take(r.count(uint64(r.u32()), 1))) }

func (r *reader) bytes() []byte {
	n := r.count(uint64(r.u32()), 1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), r.take(n)...)
}

func (r *reader) addrs() []mem.Addr {
	n := r.count(uint64(r.u32()), 8)
	if n == 0 {
		return nil
	}
	as := make([]mem.Addr, n)
	for i := range as {
		as[i] = mem.Addr(r.u64())
	}
	return as
}

func (r *reader) addrU64Map() map[mem.Addr]uint64 {
	n := r.count(uint64(r.u32()), 16)
	if n == 0 {
		return nil
	}
	m := make(map[mem.Addr]uint64, n)
	var prev mem.Addr
	for i := 0; i < n; i++ {
		a := mem.Addr(r.u64())
		r.ascending(i, prev, a)
		prev = a
		m[a] = r.u64()
	}
	return m
}

func (r *reader) addrByteMap() map[mem.Addr]byte {
	n := r.count(uint64(r.u32()), 9)
	if n == 0 {
		return nil
	}
	m := make(map[mem.Addr]byte, n)
	var prev mem.Addr
	for i := 0; i < n; i++ {
		a := mem.Addr(r.u64())
		r.ascending(i, prev, a)
		prev = a
		m[a] = r.take(1)[0]
	}
	return m
}

// ascending poisons the reader when map key a (the i-th) does not
// follow prev: EncodeImage writes map keys sorted and unique, so any
// other order is not its output and could not re-encode to the same
// bytes.
func (r *reader) ascending(i int, prev, a mem.Addr) {
	if i > 0 && a <= prev && r.err == nil {
		r.err = fmt.Errorf("map key %#x out of order at offset %d", uint64(a), r.off)
	}
}
