package engine

import (
	"maps"

	"ccnvm/internal/compress"
	"ccnvm/internal/design/names"
	"ccnvm/internal/mem"
	"ccnvm/internal/memctrl"
	"ccnvm/internal/metacache"
	"ccnvm/internal/seccrypto"
)

// Arsenal is the compression-based baseline of the paper's related work
// [Swami & Mohanram, ARSENAL, IEEE CAL'18]: each data block is BDI-
// compressed and, when it fits, its encryption counter and data HMAC
// ride inline in the same 64 B line — one atomic NVM write carries data
// and metadata, so counter crash consistency costs nothing and even the
// separate HMAC-line write of the other designs disappears.
// Incompressible blocks fall back to the conventional three-line path
// (data, HMAC, counter) behind an ordering point.
//
// Like Osiris Plus, Arsenal keeps its Merkle tree on chip only and
// updates the TCB root on every write-back, so replay attacks are
// detected after a crash (rebuilt root mismatch) but cannot be located.
// The per-line compressibility tag lives in the ECC spare bits of real
// hardware; the model carries it as a persistent sideband map.
//
// Packed line layout: [0]=encoding | encrypted payload | counter (8 B,
// plaintext, as CME counters always are) | HMAC (16 B). The payload
// budget is 64-1-8-16 = 39 bytes: zero, repeat, delta1 and delta2
// blocks fit; delta4 and raw blocks do not.
type Arsenal struct {
	Base
	onChipTree
	tags map[mem.Addr]byte // sideband: 1 = packed

	compressed   uint64 // write-backs that fit inline
	uncompressed uint64
}

// PackedBudget is the payload space left in a line after the encoding
// byte, inline counter and inline HMAC.
const PackedBudget = mem.LineSize - 1 - 8 - 16

// Sideband tag values.
const (
	TagRaw    byte = 0
	TagPacked byte = 1
)

// CompressLatency is the BDI encode/decode latency in cycles (a few
// comparator stages in hardware).
const CompressLatency = 8

// NewArsenal builds the Arsenal engine.
func NewArsenal(lay *mem.Layout, keys seccrypto.Keys, ctrl *memctrl.Controller, metaCfg metacache.Config, p Params) *Arsenal {
	a := &Arsenal{tags: make(map[mem.Addr]byte)}
	a.InitBase(lay, keys, ctrl, metaCfg, p)
	a.onChipTree.init(&a.Base)
	a.VerifyFetchedMeta = false // the in-NVM tree is not maintained
	a.SetCounterSource(a.counterLine)
	return a
}

// Name implements Engine.
func (a *Arsenal) Name() string { return names.Arsenal }

// CompressionRatio reports the fraction of write-backs that fit inline.
func (a *Arsenal) CompressionRatio() float64 {
	total := a.compressed + a.uncompressed
	if total == 0 {
		return 0
	}
	return float64(a.compressed) / float64(total)
}

// counterLine serves the shared read/bump paths from the shadow truth;
// Arsenal's counters are never stale (they persist inline with the
// data), so no recovery retries are ever charged.
func (a *Arsenal) counterLine(now int64, ca mem.Addr) (seccrypto.CounterLine, int64) {
	if _, ok := a.Meta.Read(ca); ok {
		return a.truth(ca), now + MetaCycles
	}
	cl := a.truth(ca)
	a.Meta.Fill(ca, cl.Encode())
	return cl, now + MetaCycles
}

// PackArsenalLine builds the packed NVM representation: encoding byte,
// encrypted payload, inline plaintext counter and inline HMAC over the
// canonical (zero-padded) ciphertext.
func PackArsenalLine(cry *seccrypto.Engine, addr mem.Addr, ctr uint64, pt mem.Line) (mem.Line, bool) {
	enc, payload, ok := compress.Compress(pt, PackedBudget)
	if !ok {
		return mem.Line{}, false
	}
	// Encrypt the payload bytes with the block's pad.
	var canon mem.Line
	copy(canon[:], payload)
	ct := cry.Encrypt(addr, ctr, canon)
	var out mem.Line
	out[0] = byte(enc)
	copy(out[1:1+len(payload)], ct[:len(payload)])
	putU64(out[1+PackedBudget:1+PackedBudget+8], ctr)
	var ctCanon mem.Line
	copy(ctCanon[:], ct[:len(payload)])
	h := cry.DataHMAC(addr, ctr, ctCanon)
	copy(out[1+PackedBudget+8:], h[:])
	return out, true
}

// UnpackArsenalLine inverts PackArsenalLine, verifying the inline HMAC.
func UnpackArsenalLine(cry *seccrypto.Engine, addr mem.Addr, line mem.Line) (pt mem.Line, ctr uint64, ok bool) {
	enc := compress.Encoding(line[0])
	size := enc.PayloadSize()
	if size > PackedBudget {
		return mem.Line{}, 0, false
	}
	ctr = getU64(line[1+PackedBudget : 1+PackedBudget+8])
	var ctCanon mem.Line
	copy(ctCanon[:], line[1:1+size])
	var stored seccrypto.HMAC
	copy(stored[:], line[1+PackedBudget+8:])
	if cry.DataHMAC(addr, ctr, ctCanon) != stored {
		return mem.Line{}, 0, false
	}
	dec := cry.Decrypt(addr, ctr, ctCanon)
	payload := make([]byte, size)
	copy(payload, dec[:size])
	out, err := compress.Decompress(enc, payload)
	if err != nil {
		return mem.Line{}, 0, false
	}
	return out, ctr, true
}

// PackedBlock decodes data block a of the image when its sideband tag
// marks it packed: the plaintext and counter ride inline, and ok reports
// whether the inline HMAC authenticates them. packed is false for a block
// in the conventional layout, whose counter and HMAC live in their own
// regions. Recovery and the torture reference read packed lines only
// through this accessor, so the format stays inside this package.
func (ci *CrashImage) PackedBlock(cry *seccrypto.Engine, a mem.Addr) (pt mem.Line, ctr uint64, packed, ok bool) {
	if ci.Sideband[a] != TagPacked {
		return mem.Line{}, 0, false, false
	}
	line, _ := ci.Image.Read(a)
	pt, ctr, ok = UnpackArsenalLine(cry, a, line)
	return pt, ctr, true, ok
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// FetchBlock implements Engine: packed blocks need a single NVM read
// (counter and HMAC are inline); raw blocks follow the conventional
// path.
func (a *Arsenal) FetchBlock(now int64, addr mem.Addr, f *Fetched) int64 {
	addr = mem.Align(addr)
	if a.tags[addr] != TagPacked {
		done := a.Base.FetchBlock(now, addr, f)
		a.dropEvicts()
		return done
	}
	a.StatsRef().Reads++
	line, _, tData := a.Ctrl.Read(now, addr)
	*f = Fetched{Addr: addr, Line: line, Packed: true}
	tOTP := a.AESOp(tData)
	done := a.HMACOp(tOTP, 1) + CompressLatency
	a.dropEvicts()
	return done
}

// ReadBlock implements Engine.
func (a *Arsenal) ReadBlock(now int64, addr mem.Addr) (mem.Line, int64) {
	var f Fetched
	done := a.FetchBlock(now, addr, &f)
	return a.Open(&f), done
}

// WriteBack implements Engine.
func (a *Arsenal) WriteBack(now int64, addr mem.Addr, pt mem.Line) int64 {
	a.StatsRef().Writebacks++
	addr = mem.Align(addr)
	slot, accept := a.AcquireWBSlot(now)

	ca := a.Lay.CounterLineOf(addr)
	cl, avail := a.counterLine(accept, ca)
	cslot := a.Lay.CounterSlotOf(addr)
	old := cl
	overflowed := cl.Bump(cslot)
	if overflowed {
		a.StatsRef().CounterOverflows++
		avail = a.reencryptPagePacked(avail, addr, old, cl)
	}
	a.shadowCtr[ca] = cl
	if a.Meta.Contains(ca) {
		a.Meta.Update(ca, cl.Encode())
	} else {
		a.Meta.FillDirty(ca, cl.Encode())
	}
	ctr := cl.Counter(cslot)

	// Replay protection: the root moves with every write-back, exactly
	// like Osiris Plus.
	tPath := a.updatePath(avail, a.Lay.CounterLineIndex(ca))

	var done int64
	if packed, ok := PackArsenalLine(a.Cry, addr, ctr, pt); ok {
		a.compressed++
		a.tags[addr] = TagPacked
		tEnc := a.AESOp(tPath) + CompressLatency
		tMac := a.HMACOp(tEnc, 1)
		done = a.Ctrl.Write(tMac, addr, packed)
	} else {
		// Fallback: conventional three-line path behind an ordering
		// point (data must not land before its metadata is durable).
		a.uncompressed++
		a.tags[addr] = TagRaw
		tOrder := tPath + a.Ctrl.Device().Timing().WriteCycles
		done = a.WriteDataBlock(tOrder, tOrder, addr, pt, ctr)
		done = max(done, a.Ctrl.Write(done, ca, cl.Encode()))
	}
	a.dropEvicts()
	a.ReleaseWBSlot(slot, done)
	return accept
}

// reencryptPagePacked is the Arsenal form of minor-overflow handling:
// packed lines must be unpacked with their old counters and re-packed
// under the new ones; raw lines follow the conventional re-encryption.
// The new counter line is persisted immediately so the inline/region
// counters stay in lockstep.
func (a *Arsenal) reencryptPagePacked(now int64, addr mem.Addr, old, cl seccrypto.CounterLine) int64 {
	pageBase := mem.Addr(uint64(addr) / mem.PageSize * mem.PageSize)
	t := now
	for s := 0; s < mem.BlocksPerPage; s++ {
		da := pageBase + mem.Addr(s*mem.LineSize)
		raw, present, tr := a.Ctrl.ReadBypass(t, da)
		var pt mem.Line
		switch {
		case !present:
			// Never-written blocks are materialized as zeros so their
			// inline counters match the page's new major (exactly like
			// the base re-encryption sweep).
		case a.tags[da] == TagPacked:
			var ok bool
			pt, _, ok = UnpackArsenalLine(a.Cry, da, raw)
			if !ok {
				a.StatsRef().IntegrityViolations++
				continue
			}
		default:
			pt = a.Cry.Decrypt(da, old.Counter(s), raw)
		}
		if packed, ok := PackArsenalLine(a.Cry, da, cl.Counter(s), pt); ok {
			a.tags[da] = TagPacked
			t = a.Ctrl.Write(tr, da, packed)
		} else {
			a.tags[da] = TagRaw
			ct := a.Cry.Encrypt(da, cl.Counter(s), pt)
			ha, hslot := a.Lay.HMACLineOf(da)
			hl, ok, _ := a.Ctrl.ReadBypass(tr, ha)
			if !ok {
				hl = a.DefaultHMACLine(ha)
			}
			seccrypto.PutHMAC(&hl, hslot, a.Cry.DataHMAC(da, cl.Counter(s), ct))
			t = a.Ctrl.Write(tr, da, ct)
			t = max(t, a.Ctrl.Write(t, ha, hl))
		}
	}
	// Bulk crypto charge: unpack+repack per present block.
	t += AESCycles + int64(mem.BlocksPerPage)*HMACCycles/4
	// The region copy of the counter line must follow so raw blocks (and
	// recovery) see the new major.
	t = max(t, a.Ctrl.Write(t, a.Lay.CounterLineOf(addr), cl.Encode()))
	return t
}

func (a *Arsenal) dropEvicts() { a.TakePendingEvicts() }

// Settle implements Engine: inline state is already durable; only the
// raw-fallback counters could lag, and those were written synchronously,
// so nothing remains to flush.
func (a *Arsenal) Settle(now int64) int64 {
	a.dropEvicts()
	return now
}

// Crash implements Engine: the sideband tags persist (ECC spare bits);
// the shadow tree and counter mirrors are volatile. The image's
// UpdateLimit is 0: packed counters travel inline and raw-fallback
// counter lines persist synchronously, so no counter ever lags and
// recovery tries only the stored one — a raw block whose counter write
// the crash dropped is loss, not something a retry may heal.
func (a *Arsenal) Crash() *CrashImage {
	a.ApplyCrashVolatility()
	a.reset()
	img := a.MakeCrashImage(a.Name())
	img.UpdateLimit = 0
	img.Sideband = make(map[mem.Addr]byte, len(a.tags))
	for k, v := range a.tags {
		img.Sideband[k] = v
	}
	return img
}

// RestoreSideband installs a crash image's sideband tags, as a reboot
// reads the ECC spare bits back with their lines; without them every
// packed line would be fetched as a raw one and fail its data HMAC.
func (a *Arsenal) RestoreSideband(tags map[mem.Addr]byte) {
	a.tags = make(map[mem.Addr]byte, len(tags))
	maps.Copy(a.tags, tags)
}

var _ Engine = (*Arsenal)(nil)
