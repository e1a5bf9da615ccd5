package trace

import (
	"errors"
	"fmt"

	"repro/internal/shader"
	"repro/internal/traceerr"
)

// Validate checks referential and value integrity of the workload:
// every draw references registered shaders of the right stage, valid
// resource ids, and carries in-range screen-space measurements.
// The first problem found is returned with its frame/draw coordinates.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("trace: workload has empty name")
	}
	if w.Shaders == nil {
		return fmt.Errorf("trace: workload %q has nil shader registry", w.Name)
	}
	if len(w.Frames) == 0 {
		return fmt.Errorf("trace: workload %q has no frames", w.Name)
	}
	c := w.newDrawChecker()
	for fi := range w.Frames {
		f := &w.Frames[fi]
		if len(f.Draws) == 0 {
			return fmt.Errorf("trace: %q frame %d has no draws", w.Name, fi)
		}
		for di := range f.Draws {
			if err := c.check(&f.Draws[di]); err != nil {
				return fmt.Errorf("trace: %q frame %d draw %d: %w", w.Name, fi, di, err)
			}
		}
	}
	return nil
}

// ValidateAll checks the same invariants as Validate but collects
// every violation instead of stopping at the first, joined with
// errors.Join. A nil result means the workload is fully valid. Use it
// when triaging a damaged capture: one pass names everything wrong
// rather than one problem per run.
func (w *Workload) ValidateAll() error {
	var errs []error
	if w.Name == "" {
		errs = append(errs, fmt.Errorf("trace: workload has empty name"))
	}
	if w.Shaders == nil {
		errs = append(errs, fmt.Errorf("trace: workload %q has nil shader registry", w.Name))
		return errors.Join(errs...) // draw checks need the registry
	}
	if len(w.Frames) == 0 {
		errs = append(errs, fmt.Errorf("trace: workload %q has no frames", w.Name))
	}
	c := w.newDrawChecker()
	for fi := range w.Frames {
		f := &w.Frames[fi]
		if len(f.Draws) == 0 {
			errs = append(errs, fmt.Errorf("trace: %q frame %d has no draws", w.Name, fi))
		}
		for di := range f.Draws {
			if err := c.check(&f.Draws[di]); err != nil {
				errs = append(errs, fmt.Errorf("trace: %q frame %d draw %d: %w", w.Name, fi, di, err))
			}
		}
	}
	return errors.Join(errs...)
}

// SanitizeFrame removes draws that fail validation from f in place —
// the lenient-mode draw filter. It returns how many draws were dropped
// and their joined violations (nil when the frame was clean). The
// receiver provides the resource tables; its own frames are untouched.
func (w *Workload) SanitizeFrame(f *Frame) (int, error) {
	return w.newDrawChecker().sanitizeFrame(f)
}

func (c *drawChecker) sanitizeFrame(f *Frame) (int, error) {
	var errs []error
	kept := f.Draws[:0]
	for di := range f.Draws {
		if err := c.check(&f.Draws[di]); err != nil {
			errs = append(errs, fmt.Errorf("draw %d: %w", di, err))
			continue
		}
		kept = append(kept, f.Draws[di])
	}
	dropped := len(f.Draws) - len(kept)
	f.Draws = kept
	return dropped, errors.Join(errs...)
}

// admit is every reader's per-frame check against the resource
// tables. Strict mode fails on a frame without draws or on its first
// invalid draw; lenient mode drops invalid draws, counts them, and
// reports false — a skipped frame — when none survive.
func (c *drawChecker) admit(f *Frame, lenient bool, diag *traceerr.Diagnostics) (bool, error) {
	if lenient {
		dropped, _ := c.sanitizeFrame(f)
		diag.DrawsDropped += dropped
		if len(f.Draws) == 0 {
			diag.FramesSkipped++
			return false, nil
		}
		return true, nil
	}
	if len(f.Draws) == 0 {
		return false, errors.New("has no draws")
	}
	for di := range f.Draws {
		if err := c.check(&f.Draws[di]); err != nil {
			return false, fmt.Errorf("draw %d: %w", di, err)
		}
	}
	return true, nil
}

// drawChecker checks draws against one workload's resource tables
// for the length of one validation pass. Program.TextureSlots builds a
// map and sorts it on every call, so the checker memoises each pixel
// shader's sampled slots: a pass derives them once per program, not
// once per draw. The registry must not change during the pass.
type drawChecker struct {
	w     *Workload
	slots map[shader.ID][]int
}

func (w *Workload) newDrawChecker() *drawChecker {
	return &drawChecker{w: w, slots: make(map[shader.ID][]int)}
}

func (c *drawChecker) check(d *DrawCall) error {
	w := c.w
	if d.VertexCount <= 0 {
		return fmt.Errorf("vertex count %d <= 0", d.VertexCount)
	}
	if d.InstanceCount <= 0 {
		return fmt.Errorf("instance count %d <= 0", d.InstanceCount)
	}
	vs, err := w.Shaders.Lookup(d.VS)
	if err != nil {
		return fmt.Errorf("vertex shader: %w", err)
	}
	if vs.Stage != shader.StageVertex {
		return fmt.Errorf("shader %d bound as VS has stage %v", d.VS, vs.Stage)
	}
	ps, err := w.Shaders.Lookup(d.PS)
	if err != nil {
		return fmt.Errorf("pixel shader: %w", err)
	}
	if ps.Stage != shader.StagePixel {
		return fmt.Errorf("shader %d bound as PS has stage %v", d.PS, ps.Stage)
	}
	// Every texture slot the pixel shader samples must be bound.
	slots, ok := c.slots[d.PS]
	if !ok {
		slots = ps.TextureSlots()
		c.slots[d.PS] = slots
	}
	for _, slot := range slots {
		if slot >= len(d.Textures) || d.Textures[slot] == 0 {
			return fmt.Errorf("pixel shader %d samples slot %d which is unbound", d.PS, slot)
		}
	}
	for slot, tid := range d.Textures {
		if tid == 0 {
			continue
		}
		if _, err := w.Texture(tid); err != nil {
			return fmt.Errorf("slot %d: %w", slot, err)
		}
	}
	if _, err := w.RenderTarget(d.RT); err != nil {
		return err
	}
	if d.CoverageFrac < 0 || d.CoverageFrac > 1 {
		return fmt.Errorf("coverage %v outside [0, 1]", d.CoverageFrac)
	}
	if d.Overdraw < 1 {
		return fmt.Errorf("overdraw %v < 1", d.Overdraw)
	}
	if d.TexLocality <= 0 || d.TexLocality > 1 {
		return fmt.Errorf("texture locality %v outside (0, 1]", d.TexLocality)
	}
	return nil
}
