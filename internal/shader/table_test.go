package shader

import (
	"math"
	"testing"
)

// restoreWithIDs registers one single-instruction program per id; the
// body length is the program's position, so each id maps to a
// distinct value.
func restoreWithIDs(t *testing.T, ids ...ID) *Registry {
	t.Helper()
	progs := make([]*Program, len(ids))
	for i, id := range ids {
		progs[i] = &Program{ID: id, Stage: StageVertex, Name: "p", Body: make([]Instr, i+1)}
	}
	r, err := RestoreRegistry(progs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func bodyLen(p *Program) int { return len(p.Body) }

func TestTableResolvesRegisteredIDs(t *testing.T) {
	spaced := make([]ID, 300)
	for i := range spaced {
		spaced[i] = ID(i)<<16 + 1 // many programs, ids far apart
	}
	for name, ids := range map[string][]ID{
		"dense":  {1, 2, 3, 4},
		"sparse": {1, 7, 1 << 31, 1<<31 + 5},
		"spaced": spaced,
	} {
		r := restoreWithIDs(t, ids...)
		tab := NewTable(r, bodyLen)
		var maxID ID
		for i, id := range ids {
			v, ok := tab.Lookup(id)
			if !ok || *v != i+1 {
				t.Errorf("%s: Lookup(%d) = %v, %v; want %d", name, id, v, ok, i+1)
			}
			maxID = max(maxID, id)
		}
		for _, id := range []ID{InvalidID, maxID + 1, maxID/2 + 3, math.MaxUint32 - 1, math.MaxUint32} {
			if _, err := r.Lookup(id); err == nil {
				continue // registered here: not dangling
			}
			if v, ok := tab.Lookup(id); ok {
				t.Errorf("%s: unregistered id %d resolved to %d", name, id, *v)
			}
		}
		// Sized by the program count, never by the largest id: indexing
		// by id would need 2^31 slots for the sparse registry.
		if got := len(tab.slots); got > 4*r.Len() {
			t.Errorf("%s: table has %d slots for %d programs", name, got, r.Len())
		}
	}
}

func TestTableEmptyRegistry(t *testing.T) {
	tab := NewTable(NewRegistry(), bodyLen)
	for _, id := range []ID{InvalidID, 1, math.MaxUint32} {
		if _, ok := tab.Lookup(id); ok {
			t.Errorf("empty table resolved id %d", id)
		}
	}
}
