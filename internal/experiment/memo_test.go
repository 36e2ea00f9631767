package experiment

import (
	"context"
	"fmt"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/sensor"
)

// sameBits reports whether a and b print identically. Printing
// round-trips every float64 bit pattern, and unlike == it treats the
// NaN that non-smart modes log as "no oracle forecast" as equal to
// itself.
func sameBits(a, b any) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// samePixels reports whether images a and b, of one size, hold equal
// pixels.
func samePixels(a, b *sensor.Image) bool {
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			if a.At(x, y) != b.At(x, y) {
				return false
			}
		}
	}
	return true
}

// TestLabelMemoInvisible holds the image's labeling memo to the paper's
// threat model (§III-D): the malware and the ADS share one labeling of
// each unwritten frame, and no state flows between them through it.
// For one attacked Table II episode per vector it steps the episode and
// checks, on every frame:
//
//   - a second ADS detector, seeded like the ADS's, that detects on a
//     memo-free Clone of the frame reports exactly the ADS's detections,
//     on frames the tap wrote and on frames it did not;
//   - the malware's attack log equals the one it logs on a replay of the
//     same world trajectory (the episode's EV accelerations) in which no
//     LiDAR, ADS or planner runs at all.
func TestLabelMemoInvisible(t *testing.T) {
	episodes := []struct {
		campaign string
		seed     int64
		vector   core.Vector
	}{
		{"DS-2-Disappear-R", 2, core.VectorDisappear},
		{"DS-1-Move_Out-R", 1, core.VectorMoveOut},
		{"DS-4-Move_In-R", 1, core.VectorMoveIn},
		{"DS-5-Baseline-Random", 2, core.VectorMoveOut},
	}
	campaigns := map[string]Campaign{}
	for _, c := range TableIICampaigns() {
		campaigns[c.Name] = c
	}
	ctx := context.Background()
	for _, ep := range episodes {
		t.Run(ep.campaign, func(t *testing.T) {
			c := campaigns[ep.campaign]
			cfg := RunConfig{Source: c.Scenario, Seed: ep.seed,
				Attack: AttackSetup{Mode: c.Mode, PreferDisappearFor: c.PreferDisappearFor}}
			want, err := RunCtx(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Launched || want.Vector != ep.vector {
				t.Fatalf("episode launched %v with %v, want a %v attack", want.Launched, want.Vector, ep.vector)
			}

			// The same episode started on two more scratches: one lends
			// its ADS detector, seeded like the stepped episode's, as the
			// shadow; the other replays the stepped episode's world with
			// the malware alone on the camera link.
			s, shadowS, aloneS := NewScratch(), NewScratch(), NewScratch()
			e, err := s.Start(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := shadowS.Start(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			shadow := shadowS.ads.Detector
			alone, err := aloneS.Start(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, aw := e.Scenario().World, alone.Scenario().World

			var clean sensor.CaptureBuffer
			written := 0
			for i := 0; ; i++ {
				// The frame Step is about to render, before the tap.
				cleanImg := s.cam.CaptureInto(&clean, w, i).Image
				if !e.Step() {
					break
				}
				img := e.frame.Image
				if !samePixels(cleanImg, img) {
					written++
				}
				if got, dets := shadow.Detect(img.Clone()), s.ads.LastDetections(); !sameBits(got, dets) {
					t.Fatalf("frame %d: detections on a memo-free copy\n %+v\ndiffer from the ADS's\n %+v", i, got, dets)
				}

				frame := aloneS.cam.CaptureInto(&aloneS.capture, aw, i)
				alone.Malware().SetEVSpeed(aw.EV.Speed)
				alone.Malware().Process(frame.Image, i)
				aw.Step(e.Decision().Accel)
				if got, log := alone.Malware().Log(), e.Malware().Log(); !sameBits(got, log) {
					t.Fatalf("frame %d: attack log without the ADS\n %+v\ndiffers from the closed loop's\n %+v", i, got, log)
				}
			}
			if written == 0 {
				t.Fatal("the tap wrote no frame, so written frames went unchecked")
			}
			got, err := e.Result()
			if err != nil || !sameRunResult(got, want) {
				t.Fatalf("stepped episode diverged from RunCtx (err %v):\n %+v\n %+v", err, got, want)
			}
			t.Logf("%d frames, %d written by the tap", got.Frames, written)
		})
	}
}
