package gpu

import (
	"repro/internal/shader"
	"repro/internal/trace"
)

// resources holds the config-independent terms of one workload's
// resource tables: per-program costs, texture footprints and render
// target geometry. NewSimulator builds it once; WithConfig copies the
// slice headers, so every config derived from one base simulator
// prices against the same backing arrays. Resource terms are resolved
// by slice index, so pricing a draw does no map probe, no error
// allocation and no mip-chain walk.
type resources struct {
	progs    progTable
	texBytes []float64 // texBytes[id-1]: footprint of TextureID id, mip chain included
	rts      []rtTerms // rts[id-1]: terms of RTID id
}

// rtTerms is one render target reduced to the factors DrawCost uses.
type rtTerms struct {
	pixels        float64
	bytesPerPixel float64
	hasDepth      bool
}

func newResources(w *trace.Workload) resources {
	r := resources{
		progs:    newProgTable(w.Shaders.Programs()),
		texBytes: make([]float64, len(w.Textures)),
		rts:      make([]rtTerms, len(w.RenderTargets)),
	}
	for i, t := range w.Textures {
		r.texBytes[i] = float64(t.Footprint())
	}
	for i, rt := range w.RenderTargets {
		r.rts[i] = rtTerms{pixels: float64(rt.Pixels()), bytesPerPixel: float64(rt.BytesPerPixel), hasDepth: rt.HasDepth}
	}
	return r
}

// texFootprint returns the footprint of texture id in bytes; ok is
// false for the reserved id 0 and for ids outside the table.
func (r *resources) texFootprint(id trace.TextureID) (bytes float64, ok bool) {
	if id == 0 || int(id) > len(r.texBytes) {
		return 0, false
	}
	return r.texBytes[id-1], true
}

// rt returns the terms of render target id; ok is false for ids
// outside the table.
func (r *resources) rt(id trace.RTID) (rt *rtTerms, ok bool) {
	if id == 0 || int(id) > len(r.rts) {
		return nil, false
	}
	return &r.rts[id-1], true
}

// progTable maps shader ids to their programCost. A registry restored
// from a decoded trace carries arbitrary non-zero uint32 ids, so the
// table is open-addressed instead of indexed by id: it holds the
// smallest power of two of slots at least twice the program count,
// whatever the largest id. With at most half the slots full, every
// probe sequence reaches an empty slot (id 0, which no program
// carries), so a lookup of an unregistered id terminates and fails.
type progTable struct {
	slots []progSlot
	shift uint // 32 - log2(len(slots)): keeps the hash's top bits
}

type progSlot struct {
	id   shader.ID
	cost programCost
}

func newProgTable(progs []*shader.Program) progTable {
	bits := uint(1)
	for 1<<bits < 2*len(progs) {
		bits++
	}
	t := progTable{slots: make([]progSlot, 1<<bits), shift: 32 - bits}
	mask := uint32(len(t.slots) - 1)
	for _, p := range progs {
		i := t.home(p.ID)
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = progSlot{id: p.ID, cost: analyzeProgram(p)}
	}
	return t
}

// home is the first slot probed for id (Fibonacci hashing: dense ids
// spread across the table and sparse ones do not cluster).
func (t *progTable) home(id shader.ID) uint32 {
	return (uint32(id) * 0x9e3779b9) >> t.shift
}

// lookup returns the cost of program id; ok is false when id is not
// registered (including the reserved id 0).
func (t *progTable) lookup(id shader.ID) (pc programCost, ok bool) {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(id); ; i = (i + 1) & mask {
		switch t.slots[i].id {
		case 0:
			return programCost{}, false
		case id:
			return t.slots[i].cost, true
		}
	}
}
