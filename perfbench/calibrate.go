package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"time"
)

// A shared host's speed drifts, by a third over minutes on the
// reference host, while the code stays the same. So every run also
// times a fixed calibration kernel between its timed regions and
// reports its times at the speed of the reference host (see scale). The
// kernel uses only the standard library, so a change to the pipeline
// cannot move it; it mixes what the pipeline does (gob decoding into
// fresh allocations, hashing, float arithmetic).

// calRefSecs fixes the unit: the kernel's typical time on the reference
// host, a 2-core Xeon at 2.1 GHz with GOMAXPROCS 2.
const calRefSecs = 0.1

type calRecord struct {
	Seq    int64
	Weight float64
	Tag    string
	Slots  []uint32
}

var calBlob = func() []byte {
	recs := make([]calRecord, 60000)
	for i := range recs {
		recs[i] = calRecord{Seq: int64(i), Weight: float64(i) / 3, Tag: "draw", Slots: []uint32{uint32(i), 1, 2}}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		panic(err) // a fixed in-memory value always encodes
	}
	return buf.Bytes()
}()

var calSink float64

// calibrate runs the kernel once and returns its seconds.
func calibrate() float64 {
	t0 := time.Now()
	for pass := 0; pass < 2; pass++ {
		var recs []calRecord
		if err := gob.NewDecoder(bytes.NewReader(calBlob)).Decode(&recs); err != nil {
			panic(err) // calBlob is the encoding of this very type
		}
		h := sha256.New()
		x := 1.0
		for i := range recs {
			fmt.Fprintf(h, "%d %v", recs[i].Seq, recs[i].Weight)
			for k := 0; k < 10; k++ {
				x = x*1.0000001 + math.Sqrt(recs[i].Weight+float64(k))*1e-9
			}
		}
		calSink += x + float64(h.Sum(nil)[0])
	}
	return time.Since(t0).Seconds()
}

// calibration collects a run's kernel samples: one before set-up, and
// one after every set-up rep and every iteration.
type calibration struct {
	samples []float64
}

func (c *calibration) sample() { c.samples = append(c.samples, calibrate()) }

// scale converts the run's raw seconds to reference-host seconds. Under
// the reference host's drift the kernel's speed moved one to two times
// as much as the pipeline's, so a full correction swaps drift for the
// kernel's own swings. The square root corrects about half: over sets
// of five to ten runs, the worst quartile spread of iter_s was 0.28 raw,
// 0.20 fully corrected and 0.18 with the square root.
func (c *calibration) scale() float64 { return math.Sqrt(calRefSecs / median(c.samples)) }
