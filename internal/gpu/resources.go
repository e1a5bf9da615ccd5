package gpu

import (
	"repro/internal/shader"
	"repro/internal/trace"
)

// resources holds the config-independent terms of one workload's
// resource tables: per-program costs, texture footprints and render
// target geometry. NewSimulator builds it once; WithConfig copies the
// slice headers, so every config derived from one base simulator
// prices against the same backing arrays. Texture and render target
// terms are resolved by slice index and program costs through a
// shader.Table, so pricing a draw does no map probe, no error
// allocation and no mip-chain walk.
type resources struct {
	progs    shader.Table[programCost]
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
		progs:    shader.NewTable(w.Shaders, analyzeProgram),
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
