package txn

import (
	"math/bits"

	"doublechecker/internal/vm"
)

// elideTable is one thread's duplicate-elision window (paper §4: "ICD
// tracks, for each field, the value of a per-thread timestamp of the last
// access (and whether it was a read or write)"). It is an open-addressed
// hash table keyed by packed (obj, field). Each slot carries the thread's
// timestamp at the slot's last logged access; a slot whose timestamp is not
// the thread's current one is empty, so bumping the timestamp clears the
// whole window in O(1). No slot is removed within a window, which keeps
// linear probing correct: a lookup may stop at the first empty slot.
type elideTable struct {
	slots []elideSlot
	shift uint   // 64 - log2(len(slots)), for Fibonacci hashing
	ts    uint64 // the window that live counts
	live  int    // occupied slots in window ts
}

// elideSlot is one (obj, field)'s elision state: stamp is the window
// timestamp shifted left by one, with the low bit set once a write was
// logged in that window.
type elideSlot struct {
	key   uint64
	stamp uint64
}

const minElideSlots = 16

func elideKey(obj vm.ObjectID, field vm.FieldID) uint64 {
	return uint64(uint32(obj))<<32 | uint64(uint32(field))
}

// note records an access to key in window ts (ts >= 1) and reports whether
// it is elided: a read after any logged access, or a write after a logged
// write, in the same window. Otherwise the slot takes the access.
func (e *elideTable) note(key, ts uint64, write bool) bool {
	if e.ts != ts {
		e.ts, e.live = ts, 0
	}
	if 4*(e.live+1) > 3*len(e.slots) {
		e.grow()
	}
	var w uint64
	if write {
		w = 1
	}
	mask := uint64(len(e.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> e.shift; ; i = (i + 1) & mask {
		s := &e.slots[i]
		if s.stamp>>1 != ts {
			*s = elideSlot{key: key, stamp: ts<<1 | w}
			e.live++
			return false
		}
		if s.key == key {
			if !write || s.stamp&1 != 0 {
				return true
			}
			s.stamp |= 1
			return false
		}
	}
}

// grow doubles the table, carrying over the current window's slots only.
func (e *elideTable) grow() {
	old := e.slots
	n := max(2*len(old), minElideSlots)
	e.slots = make([]elideSlot, n)
	e.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for _, s := range old {
		if s.stamp>>1 != e.ts {
			continue
		}
		i := (s.key * 0x9E3779B97F4A7C15) >> e.shift
		for e.slots[i].stamp>>1 == e.ts {
			i = (i + 1) & mask
		}
		e.slots[i] = s
	}
}
