// Package twoslot is the one implementation of the record that the
// spare pool's remap table, the recovery journal and the KV compaction
// manifest persist with (DESIGN.md "Two-slot records"). A record kind
// owns two fixed-size slots; commit seq goes to slot seq%2, so a power
// failure mid-commit tears only that slot and the other one still
// rules. Every kind shares the frame: magic at the start of word 0, seq
// little-endian at [8,16), the owner's payload up to S, mem.Checksum
// over [0,S) at [S,S+8), zero padding to the slot length. The owners
// keep the policy: payload checks, repair, and what two torn slots mean.
package twoslot

import (
	"encoding/binary"

	"ccnvm/internal/mem"
)

// Format is one record kind's frame geometry.
type Format struct {
	Magic   string // leading bytes of word 0, at most 8
	SealOff int    // S: the checksum covers [0, S) and sits at [S, S+8)
	SlotLen int    // bytes per slot
}

// TableLen is the byte length of the whole two-slot table.
func (f Format) TableLen() int { return 2 * f.SlotLen }

// Off is the table offset of the slot commit seq is written to.
func (f Format) Off(seq uint64) int { return int(seq%2) * f.SlotLen }

// Slot is the slot of table that commit seq is written to.
func (f Format) Slot(table []byte, seq uint64) []byte {
	off := f.Off(seq)
	return table[off : off+f.SlotLen]
}

// Seal frames a slot whose payload the owner has written: magic, seq,
// checksum and zero padding.
func (f Format) Seal(slot []byte, seq uint64) {
	copy(slot, f.Magic)
	binary.LittleEndian.PutUint64(slot[8:], seq)
	binary.LittleEndian.PutUint64(slot[f.SealOff:], mem.Checksum(slot[:f.SealOff]))
	clear(slot[f.SealOff+8 : f.SlotLen])
}

// Seq is a slot's sequence number.
func Seq(slot []byte) uint64 { return binary.LittleEndian.Uint64(slot[8:]) }

// State is a slot's frame state.
type State uint8

const (
	Empty State = iota // word 0 is zero, the unit a word-granular tear keeps or loses whole
	Valid              // magic and checksum hold
	Torn               // anything else: a write caught in flight
)

// State classifies one slot; a slice of the wrong length is torn.
func (f Format) State(slot []byte) State {
	switch {
	case len(slot) != f.SlotLen:
		return Torn
	case binary.LittleEndian.Uint64(slot) == 0:
		return Empty
	case string(slot[:len(f.Magic)]) != f.Magic,
		binary.LittleEndian.Uint64(slot[f.SealOff:]) != mem.Checksum(slot[:f.SealOff]):
		return Torn
	}
	return Valid
}

// Choice is the ruling over one table.
type Choice struct {
	Winner []byte  // the newest valid slot, aliasing the table; nil when none rules
	Seq    uint64  // the winner's sequence number
	Torn   [2]bool // slots that are neither empty nor valid
}

// AnyTorn reports whether either slot is torn.
func (c Choice) AnyTorn() bool { return c.Torn[0] || c.Torn[1] }

// Choose rules a table: the valid slot with the higher seq wins, slot 0
// on a tie. payloadOK is the owner's check of a valid frame's payload
// (nil accepts all); a slot it refuses counts as torn. A table of any
// length other than TableLen holds no record.
func (f Format) Choose(table []byte, payloadOK func(slot []byte) bool) Choice {
	var c Choice
	if len(table) != f.TableLen() {
		return c
	}
	for i := range 2 {
		slot := table[i*f.SlotLen : (i+1)*f.SlotLen]
		switch st := f.State(slot); {
		case st == Empty:
		case st == Valid && (payloadOK == nil || payloadOK(slot)):
			if s := Seq(slot); c.Winner == nil || s > c.Seq {
				c.Winner, c.Seq = slot, s
			}
		default:
			c.Torn[i] = true
		}
	}
	return c
}

// Repair rewrites each slot c found torn with the winner's sealed bytes
// and zero padding, or zeroes it when no record rules, so the next
// Choose finds no torn slot and the same winning record. c must be the
// ruling over table as it is now.
func (f Format) Repair(table []byte, c Choice) {
	for i, torn := range c.Torn {
		if !torn {
			continue
		}
		slot := table[i*f.SlotLen : (i+1)*f.SlotLen]
		n := 0
		if c.Winner != nil {
			n = copy(slot, c.Winner[:f.SealOff+8])
		}
		clear(slot[n:])
	}
}
