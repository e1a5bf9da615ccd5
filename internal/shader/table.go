package shader

// Table maps the program ids of one registry to a value its consumer
// precomputes per program: pricing terms in the cost model, op counts
// in feature extraction. A registry restored from a decoded trace
// carries arbitrary non-zero uint32 ids, so the table is open-addressed
// instead of indexed by id: it holds the smallest power of two of slots
// at least twice the program count, whatever the largest id. With at
// most half the slots full, every probe sequence reaches an empty slot
// (InvalidID, which no program carries), so a lookup of an
// unregistered id terminates and fails. Safe for concurrent lookups.
type Table[T any] struct {
	slots []tableSlot[T]
	shift uint // 32 - log2(len(slots)): keeps the hash's top bits
}

type tableSlot[T any] struct {
	id  ID
	val T
}

// NewTable returns the table of f(p) for every program p of r.
func NewTable[T any](r *Registry, f func(*Program) T) Table[T] {
	progs := r.Programs()
	bits := uint(1)
	for 1<<bits < 2*len(progs) {
		bits++
	}
	t := Table[T]{slots: make([]tableSlot[T], 1<<bits), shift: 32 - bits}
	mask := uint32(len(t.slots) - 1)
	for _, p := range progs {
		i := t.home(p.ID)
		for t.slots[i].id != InvalidID {
			i = (i + 1) & mask
		}
		t.slots[i] = tableSlot[T]{id: p.ID, val: f(p)}
	}
	return t
}

// home is the first slot probed for id (Fibonacci hashing: dense ids
// spread across the table and sparse ones do not cluster).
func (t *Table[T]) home(id ID) uint32 {
	return (uint32(id) * 0x9e3779b9) >> t.shift
}

// Lookup returns the value of program id; ok is false when id is not
// registered (including the reserved InvalidID). The pointer aliases
// the table, so per-draw callers copy nothing; it is read-only.
func (t *Table[T]) Lookup(id ID) (v *T, ok bool) {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(id); ; i = (i + 1) & mask {
		switch t.slots[i].id {
		case InvalidID:
			return nil, false
		case id:
			return &t.slots[i].val, true
		}
	}
}
