// Package tracetest builds small hand-constructed workloads for unit
// tests across the library. Unlike internal/synth these fixtures are
// tiny, fully spelled out, and independent of the generator under test.
package tracetest

import (
	"fmt"

	"repro/internal/shader"
	"repro/internal/trace"
)

// Tiny returns a small valid workload: 3 frames, 4 draws each, two
// vertex shaders, two pixel shaders (one texture-heavy, one ALU-only),
// two textures and one render target. It panics on construction errors
// because the fixture is a constant.
func Tiny() *trace.Workload {
	reg := shader.NewRegistry()
	mustRegister := func(p *shader.Program) shader.ID {
		id, err := reg.Register(p)
		if err != nil {
			panic(fmt.Sprintf("tracetest: %v", err))
		}
		return id
	}
	vsSimple := mustRegister(&shader.Program{Stage: shader.StageVertex, Name: "vs.simple", Body: []shader.Instr{
		{Op: shader.OpInterp}, {Op: shader.OpALU}, {Op: shader.OpALU}, {Op: shader.OpALU},
	}})
	vsSkin := mustRegister(&shader.Program{Stage: shader.StageVertex, Name: "vs.skinned", Body: []shader.Instr{
		{Op: shader.OpInterp}, {Op: shader.OpInterp}, {Op: shader.OpMem},
		{Op: shader.OpALU}, {Op: shader.OpALU}, {Op: shader.OpALU}, {Op: shader.OpALU},
		{Op: shader.OpALU}, {Op: shader.OpSFU}, {Op: shader.OpCF},
	}})
	psFlat := mustRegister(&shader.Program{Stage: shader.StagePixel, Name: "ps.flat", Body: []shader.Instr{
		{Op: shader.OpInterp}, {Op: shader.OpALU}, {Op: shader.OpALU},
	}})
	psTex := mustRegister(&shader.Program{Stage: shader.StagePixel, Name: "ps.textured", Body: []shader.Instr{
		{Op: shader.OpInterp}, {Op: shader.OpTex, Slot: 0}, {Op: shader.OpTex, Slot: 1},
		{Op: shader.OpALU}, {Op: shader.OpALU}, {Op: shader.OpALU}, {Op: shader.OpSFU},
	}})

	textures := []trace.Texture{
		{Width: 256, Height: 256, BytesPerTexel: 4, MipLevels: 8},
		{Width: 512, Height: 512, BytesPerTexel: 4, MipLevels: 9},
	}
	rts := []trace.RenderTarget{{Width: 1280, Height: 720, BytesPerPixel: 4, HasDepth: true}}

	baseDraws := []trace.DrawCall{
		{
			VertexCount: 3000, InstanceCount: 1, Topology: trace.TriangleList,
			VS: vsSimple, PS: psTex, Textures: []trace.TextureID{1, 2}, RT: 1,
			DepthEnable: true, CoverageFrac: 0.30, Overdraw: 1.4, TexLocality: 0.5,
			MaterialID: 1,
		},
		{
			VertexCount: 1200, InstanceCount: 2, Topology: trace.TriangleStrip,
			VS: vsSkin, PS: psTex, Textures: []trace.TextureID{2, 1}, RT: 1,
			DepthEnable: true, CoverageFrac: 0.10, Overdraw: 1.1, TexLocality: 0.7,
			MaterialID: 2,
		},
		{
			VertexCount: 300, InstanceCount: 1, Topology: trace.TriangleList,
			VS: vsSimple, PS: psFlat, RT: 1,
			BlendEnable: true, CoverageFrac: 0.05, Overdraw: 2.0, TexLocality: 1.0,
			MaterialID: 3,
		},
		{
			VertexCount: 60, InstanceCount: 1, Topology: trace.TriangleList,
			VS: vsSimple, PS: psFlat, RT: 1,
			CoverageFrac: 0.02, Overdraw: 1.0, TexLocality: 1.0,
			MaterialID: 3,
		},
	}

	frames := make([]trace.Frame, 3)
	for i := range frames {
		draws := make([]trace.DrawCall, len(baseDraws))
		copy(draws, baseDraws)
		// Vary geometry slightly per frame so frames are not identical.
		for j := range draws {
			draws[j].VertexCount += i * 30
		}
		frames[i] = trace.Frame{Scene: "fixture", Draws: draws}
	}

	w := &trace.Workload{
		Name:          "tiny",
		Frames:        frames,
		Shaders:       reg,
		Textures:      textures,
		RenderTargets: rts,
	}
	if err := w.Validate(); err != nil {
		panic(fmt.Sprintf("tracetest: fixture invalid: %v", err))
	}
	return w
}

// TinySparseIDs is Tiny with its four programs restored under the
// sparse ids 1, 7, 1<<31 and 1<<31+5, as a decoded trace may carry
// them. Consumers that precompute per-program terms must resolve these
// ids exactly as Tiny's dense ones, without sizing anything by the
// largest id.
func TinySparseIDs() *trace.Workload {
	w := Tiny()
	remap := map[shader.ID]shader.ID{1: 1, 2: 7, 3: 1 << 31, 4: 1<<31 + 5}
	var progs []*shader.Program
	for _, p := range w.Shaders.Programs() {
		q := *p
		q.ID = remap[p.ID]
		progs = append(progs, &q)
	}
	reg, err := shader.RestoreRegistry(progs)
	if err != nil {
		panic(fmt.Sprintf("tracetest: %v", err))
	}
	w.Shaders = reg
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			d := &w.Frames[fi].Draws[di]
			d.VS, d.PS = remap[d.VS], remap[d.PS]
		}
	}
	if err := w.Validate(); err != nil {
		panic(fmt.Sprintf("tracetest: sparse fixture invalid: %v", err))
	}
	return w
}
