package experiment

import (
	"fmt"
	"slices"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/stats"
)

// sameBits reports whether a and b print identically. Printing
// round-trips every float64 bit pattern, and unlike == it treats the
// NaN that non-smart modes log as "no oracle forecast" as equal to
// itself.
func sameBits(a, b any) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// memoEpisode starts cfg's episode on s the way RunCtx does and returns
// its scenario and armed malware.
func memoEpisode(t *testing.T, s *Scratch, cfg RunConfig) (*scenario.Scenario, *core.Malware) {
	t.Helper()
	scn, err := scenario.InstantiateSource(cfg.source(), s.arenaFor(), reseed(&s.scnRNG, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig(cfg.Attack.Mode)
	mcfg.Matcher.PreferDisappearFor = cfg.Attack.PreferDisappearFor
	return scn, s.malwareFor(mcfg, nil, reseed(&s.malRNG, cfg.Seed*31337+7))
}

// TestLabelMemoInvisible holds the image's labeling memo to the paper's
// threat model (§III-D): the malware and the ADS share one labeling of
// each unwritten frame, and no state flows between them through it.
// For one attacked Table II episode per vector it steps RunCtx's frame
// loop and checks, on every frame:
//
//   - a second ADS detector, seeded like the ADS's, that detects on a
//     memo-free Clone of the frame reports exactly the ADS's detections,
//     on frames the tap wrote and on frames it did not;
//   - the malware's attack log equals the one it logs on a replay of the
//     same world trajectory (the recorded EV accelerations) in which no
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
	for _, ep := range episodes {
		t.Run(ep.campaign, func(t *testing.T) {
			c := campaigns[ep.campaign]
			cfg := RunConfig{Source: c.Scenario, Seed: ep.seed,
				Attack: AttackSetup{Mode: c.Mode, PreferDisappearFor: c.PreferDisappearFor}}
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Launched || want.Vector != ep.vector {
				t.Fatalf("episode launched %v with %v, want a %v attack", want.Launched, want.Vector, ep.vector)
			}

			// The closed loop, as RunCtx steps it, plus the shadow
			// detector on a copy of what the ADS sees.
			s := NewScratch()
			scn, malware := memoEpisode(t, s, cfg)
			w := scn.World
			adsRNG := reseed(&s.adsRNG, cfg.Seed*7919+13)
			ads := s.pipeline(adsRNG)
			lidar := s.lidarFor(reseed(&s.lidarRNG, adsRNG.SplitSeed()))
			shadowRNG := stats.NewRNG(cfg.Seed*7919 + 13)
			shadowRNG.SplitSeed()
			shadow := detect.NewDefault(shadowRNG)
			pl := s.plannerFor(planner.DefaultConfig(scn.CruiseSpeed))

			var logs []core.AttackLog
			var accels []float64
			written := 0
			for i := 0; i < scn.Frames() && !w.Halted; i++ {
				frame := s.cam.CaptureInto(&s.capture, w, i)
				clean := frame.Image.Clone()
				malware.SetEVSpeed(w.EV.Speed)
				malware.Process(frame.Image, i)
				if !slices.Equal(clean.Pix, frame.Image.Pix) {
					written++
				}
				scan := lidar.Scan(w)
				dets := ads.StageDetect(frame.Image)
				if got := shadow.Detect(frame.Image.Clone()); !sameBits(got, dets) {
					t.Fatalf("frame %d: detections on a memo-free copy\n %+v\ndiffer from the ADS's\n %+v", i, got, dets)
				}
				objs := ads.StageFuse(ads.StageTrack(dets), scan)
				d := pl.Plan(objs, ads.Fusion.Config(), w.EV, w.Road)
				w.Step(d.Accel)
				logs = append(logs, malware.Log())
				accels = append(accels, d.Accel)
			}
			if written == 0 {
				t.Fatal("the tap wrote no frame, so written frames went unchecked")
			}
			log := malware.Log()
			if len(logs) != want.Frames || log.LaunchFrame != want.LaunchFrame ||
				log.K != want.K || log.KPrime != want.KPrime {
				t.Fatalf("stepped loop diverged from RunCtx: %d frames, launch %d, K %d, K' %d; RunCtx: %d, %d, %d, %d",
					len(logs), log.LaunchFrame, log.K, log.KPrime, want.Frames, want.LaunchFrame, want.K, want.KPrime)
			}

			// The same world trajectory with the malware alone on the
			// camera link.
			s = NewScratch()
			scn, malware = memoEpisode(t, s, cfg)
			w = scn.World
			for i, a := range accels {
				frame := s.cam.CaptureInto(&s.capture, w, i)
				malware.SetEVSpeed(w.EV.Speed)
				malware.Process(frame.Image, i)
				w.Step(a)
				if got := malware.Log(); !sameBits(got, logs[i]) {
					t.Fatalf("frame %d: attack log without the ADS\n %+v\ndiffers from the closed loop's\n %+v", i, got, logs[i])
				}
			}
			t.Logf("%d frames, %d written by the tap", len(logs), written)
		})
	}
}
