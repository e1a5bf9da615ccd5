// Package trace models captured 3D workloads: draw calls, frames,
// bound resources and pipeline state.
//
// The paper operates on D3D frame captures of commercial games. This
// package is the in-memory equivalent of such a capture at the
// granularity the methodology needs: one record per draw call carrying
// the micro-architecture independent quantities (geometry size, bound
// shaders, textures, raster state, screen coverage) that both the
// feature extractor and the GPU cost model consume.
package trace

import (
	"fmt"

	"repro/internal/shader"
)

// TextureID identifies a texture within a workload; 0 means "no
// texture bound". Valid ids index Workload.Textures at id-1.
type TextureID uint32

// RTID identifies a render target within a workload. Valid ids index
// Workload.RenderTargets at id-1; unlike textures there is no "none"
// value — every draw renders somewhere.
type RTID uint32

// Topology is the primitive topology of a draw.
type Topology uint8

// Supported topologies.
const (
	TriangleList Topology = iota
	TriangleStrip
	LineList
	PointList
)

// String returns the topology name.
func (tp Topology) String() string {
	switch tp {
	case TriangleList:
		return "trilist"
	case TriangleStrip:
		return "tristrip"
	case LineList:
		return "linelist"
	case PointList:
		return "pointlist"
	default:
		return fmt.Sprintf("topology(%d)", uint8(tp))
	}
}

// Texture describes an immutable texture resource.
type Texture struct {
	Width, Height int
	BytesPerTexel int
	MipLevels     int
}

// Footprint returns the total memory footprint of the texture in
// bytes, including the mip chain (each level a quarter of the previous).
func (t Texture) Footprint() int64 {
	w, h := int64(t.Width), int64(t.Height)
	var total int64
	levels := t.MipLevels
	if levels < 1 {
		levels = 1
	}
	for l := 0; l < levels && w > 0 && h > 0; l++ {
		total += w * h * int64(t.BytesPerTexel)
		w /= 2
		h /= 2
	}
	return total
}

// RenderTarget describes a color render target (with optional depth).
type RenderTarget struct {
	Width, Height int
	BytesPerPixel int
	HasDepth      bool
}

// Pixels returns the pixel count of the target.
func (rt RenderTarget) Pixels() int64 { return int64(rt.Width) * int64(rt.Height) }

// DrawCall is one draw command with its bound state. All fields are
// micro-architecture independent: they describe the work submitted,
// never how any particular GPU executes it.
type DrawCall struct {
	// Geometry.
	VertexCount   int
	InstanceCount int
	Topology      Topology

	// Bound programs and resources.
	VS, PS   shader.ID
	Textures []TextureID // pixel-shader slot -> texture (0 = unbound slot)
	RT       RTID

	// Raster state.
	BlendEnable bool
	DepthEnable bool

	// Screen-space behaviour measured at capture time (a trace
	// replayer knows these exactly; they are properties of the
	// workload, not of the simulated GPU).
	CoverageFrac float64 // fraction of the RT covered by this draw, [0, 1]
	Overdraw     float64 // shaded-pixels / covered-pixels, >= 1
	TexLocality  float64 // fraction of bound texture footprints actually touched, (0, 1]

	// MaterialID is capture metadata: the engine-level material/batch
	// this draw came from. The subsetting algorithms never read it; the
	// evaluation uses it as ground truth when assessing clusterings.
	MaterialID uint32
}

// Primitives returns the primitive count implied by the topology and
// vertex count for one instance.
func (d *DrawCall) Primitives() int {
	switch d.Topology {
	case TriangleList:
		return d.VertexCount / 3
	case TriangleStrip:
		if d.VertexCount < 3 {
			return 0
		}
		return d.VertexCount - 2
	case LineList:
		return d.VertexCount / 2
	case PointList:
		return d.VertexCount
	default:
		return 0
	}
}

// TotalVertices returns vertices across all instances.
func (d *DrawCall) TotalVertices() int64 {
	return int64(d.VertexCount) * int64(d.InstanceCount)
}

// TotalPrimitives returns primitives across all instances.
func (d *DrawCall) TotalPrimitives() int64 {
	return int64(d.Primitives()) * int64(d.InstanceCount)
}

// Frame is one rendered frame: an ordered sequence of draw calls.
type Frame struct {
	// Scene is capture metadata naming the content being rendered
	// (e.g. "corridor", "firefight"). Phase detection must rediscover
	// scene structure without reading it; evaluation uses it as ground
	// truth.
	Scene string
	Draws []DrawCall
}

// Workload is a complete captured workload: frames plus the resource
// tables draw calls reference.
//
// A Workload is valid by construction: every constructor checks it
// once, where the data enters — ReadWorkload and Decode, a
// StreamReader's Header.Shell plus its per-frame checks,
// synth.Generate, tracetest and apicmd replay. Consumers (extractors,
// simulators, the pipeline) take it on trust and do not re-check; a
// dangling reference reaching them panics as a bug. Code that edits a
// workload in place re-establishes validity with Validate (or drops
// invalid draws with SanitizeFrame) before handing it on.
type Workload struct {
	Name          string
	Frames        []Frame
	Shaders       *shader.Registry
	Textures      []Texture
	RenderTargets []RenderTarget
}

// Texture resolves a TextureID, returning an error for the reserved id
// 0 or an out-of-range id.
func (w *Workload) Texture(id TextureID) (Texture, error) {
	if id == 0 || int(id) > len(w.Textures) {
		return Texture{}, fmt.Errorf("trace: texture id %d out of range [1, %d]", id, len(w.Textures))
	}
	return w.Textures[id-1], nil
}

// RenderTarget resolves an RTID.
func (w *Workload) RenderTarget(id RTID) (RenderTarget, error) {
	if id == 0 || int(id) > len(w.RenderTargets) {
		return RenderTarget{}, fmt.Errorf("trace: render target id %d out of range [1, %d]", id, len(w.RenderTargets))
	}
	return w.RenderTargets[id-1], nil
}

// NumDraws returns the total draw-call count across all frames.
func (w *Workload) NumDraws() int {
	n := 0
	for i := range w.Frames {
		n += len(w.Frames[i].Draws)
	}
	return n
}

// NumFrames returns the frame count.
func (w *Workload) NumFrames() int { return len(w.Frames) }
