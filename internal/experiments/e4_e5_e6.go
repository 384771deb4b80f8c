package experiments

import (
	"fmt"
	"io"

	"tinymlops/internal/dataset"
	"tinymlops/internal/fed"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/observe"
	"tinymlops/internal/tensor"
)

// RunE4 measures drift-detection delay per detector × drift kind, the
// false-positive behaviour on a null stream, and the telemetry footprint
// versus shipping raw data.
func RunE4(w io.Writer) error {
	rng := tensor.NewRNG(20)
	base := dataset.Blobs(rng, 4000, 4, 3, 3)

	ref := make([]float64, 1000)
	var welford observe.Welford
	for i := range ref {
		ref[i] = float64(base.X.At2(i, 0))
		welford.Add(ref[i])
	}
	makeDetectors := func() (map[string]observe.Detector, error) {
		ks, err := observe.NewKSDetector(ref, 100, 0.01)
		if err != nil {
			return nil, err
		}
		psi, err := observe.NewPSIDetector(ref, 10, 200, 0.25)
		if err != nil {
			return nil, err
		}
		cusum, err := observe.NewCUSUMDetector(welford.Mean(), welford.Std(), 0.5, 10)
		if err != nil {
			return nil, err
		}
		return map[string]observe.Detector{"ks": ks, "psi": psi, "cusum": cusum}, nil
	}

	kinds := []struct {
		name string
		kind dataset.DriftKind
		mag  float64
	}{
		{"mean-shift(2σ)", dataset.DriftMeanShift, 2 * float64(welford.Std())},
		{"rotate(60°)", dataset.DriftRotate, 1.05},
		{"scale(×1.6)", dataset.DriftScale, 0.6},
	}
	const onset = 1000
	tw := table(w)
	fmt.Fprintln(tw, "drift kind\tdetector\tdetected\tdelay (samples)\tscore at alarm")
	for _, kd := range kinds {
		dets, err := makeDetectors()
		if err != nil {
			return err
		}
		for _, name := range sortedKeys(dets) {
			det := dets[name]
			stream := dataset.NewDriftStream(tensor.NewRNG(21), base, onset, kd.kind, kd.mag)
			alarm := -1
			for t := 0; t < onset+3000; t++ {
				x, _ := stream.Next()
				det.Observe(float64(x[0]))
				if det.Drifted() {
					alarm = t
					break
				}
			}
			switch {
			case alarm < 0:
				fmt.Fprintf(tw, "%s\t%s\tno\t—\t%.3f\n", kd.name, name, det.Score())
			case alarm < onset:
				fmt.Fprintf(tw, "%s\t%s\tFALSE POSITIVE\tt=%d\t%.3f\n", kd.name, name, alarm, det.Score())
			default:
				fmt.Fprintf(tw, "%s\t%s\tyes\t%d\t%.3f\n", kd.name, name, alarm-onset, det.Score())
			}
		}
	}
	// Null stream: no detector should fire over 4000 samples.
	dets, err := makeDetectors()
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(dets) {
		det := dets[name]
		stream := dataset.NewDriftStream(tensor.NewRNG(22), base, 1<<30, dataset.DriftNone, 0)
		fired := false
		for t := 0; t < 4000; t++ {
			x, _ := stream.Next()
			det.Observe(float64(x[0]))
			if det.Drifted() {
				fired = true
				break
			}
		}
		verdict := "clean"
		if fired {
			verdict = "FALSE POSITIVE"
		}
		fmt.Fprintf(tw, "null (no drift)\t%s\t%s\t\t\n", name, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	rec := observe.Record{DeviceID: "m4-wearable-00", Inferences: 1000,
		FeatureMeans: make([]float32, 4), FeatureStds: make([]float32, 4)}
	telemetry := len(rec.Encode())
	raw := 1000 * 4 * 4
	fmt.Fprintf(w, "\ntelemetry for a 1000-inference window: %d B vs %d B raw inputs (%.0f× smaller, no raw data leaves the device)\n",
		telemetry, raw, float64(raw)/float64(telemetry))
	return nil
}

// RunE5 reports the settlement report's size and the tamper-detection
// matrix.
func RunE5(w io.Writer) error {
	issuer, err := metering.NewIssuer([]byte("e5-vendor-key-0123456789abcdef00"))
	if err != nil {
		return err
	}
	v, err := issuer.Issue("dev-1", "model-1", 200_000)
	if err != nil {
		return err
	}
	m := metering.NewMeter(v)
	const charges = 100_000
	for i := 0; i < charges; i++ {
		if err := m.Charge(uint64(i)); err != nil {
			return err
		}
	}
	report := m.BuildReport()
	fmt.Fprintf(w, "settlement report for %d queries: %d entries, ≈%d B\n\n",
		charges, len(report.Entries), len(report.Entries)*48)

	settler := metering.NewSettler(issuer)
	if rec := settler.Settle(report); !rec.OK {
		return fmt.Errorf("honest settlement rejected: %s", rec.Reason)
	}

	tw := table(w)
	fmt.Fprintln(tw, "attack\tdetected\treason")
	// 1. Replay (rollback to pre-settlement state).
	rec := settler.Settle(report)
	fmt.Fprintf(tw, "replay settled usage\t%v\t%s\n", !rec.OK, rec.Reason)
	// 2. Meter reset (fresh chain).
	m2 := metering.NewMeter(v)
	m2.Charge(1) //nolint:errcheck
	rec = settler.Settle(m2.BuildReport())
	fmt.Fprintf(tw, "reset local meter\t%v\t%s\n", !rec.OK, rec.Reason)
	// 3. Forged voucher (inflated quota).
	forged := v
	forged.Queries = 1 << 40
	m3 := metering.NewMeter(forged)
	m3.Charge(1) //nolint:errcheck
	rec = settler.Settle(m3.BuildReport())
	fmt.Fprintf(tw, "forge voucher quota\t%v\t%s\n", !rec.OK, rec.Reason)
	// 4. Tampered chain entry.
	issuer2, _ := metering.NewIssuer([]byte("e5-vendor-key-0123456789abcdef00"))
	v2, _ := issuer2.Issue("dev-2", "model-1", 100)
	settler2 := metering.NewSettler(issuer2)
	m4 := metering.NewMeter(v2)
	for i := 0; i < 10; i++ {
		m4.Charge(uint64(i)) //nolint:errcheck
	}
	r4 := m4.BuildReport()
	r4.Entries[5].Tick = 999999
	rec = settler2.Settle(r4)
	fmt.Fprintf(tw, "edit usage log entry\t%v\t%s\n", !rec.OK, rec.Reason)
	// 5. Under-report usage.
	r5 := m4.BuildReport()
	r5.Entries = r5.Entries[:7]
	rec = settler2.Settle(r5)
	fmt.Fprintf(tw, "under-report usage\t%v\t%s\n", !rec.OK, rec.Reason)
	// 6. Local over-quota use is denied on-device.
	small, _ := issuer.Issue("dev-3", "model-1", 3)
	m6 := metering.NewMeter(small)
	denied := 0
	for i := 0; i < 5; i++ {
		if err := m6.Charge(uint64(i)); err != nil {
			denied++
		}
	}
	fmt.Fprintf(tw, "offline over-quota use\t%v\tdenied %d/5 locally\n", denied == 2, denied)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nper-query metering time: bench/run.sh measures it (metering.charge_ns)")
	return nil
}

// RunE6 sweeps federated learning over non-IID severity, update codecs and
// personalization.
func RunE6(w io.Writer) error {
	rng := tensor.NewRNG(30)
	// Overlapping 5-class clusters: hard enough that client drift under
	// label skew actually costs accuracy.
	ds := dataset.Blobs(rng, 3000, 8, 5, 1.5)
	train, test := ds.Split(0.8, rng)
	newGlobal := func(seed uint64) *nn.Network {
		r := tensor.NewRNG(seed)
		return nn.NewNetwork([]int{8}, nn.NewDense(8, 24, r), nn.NewReLU(), nn.NewDense(24, 5, r))
	}
	centralized := newGlobal(31)
	if _, err := nn.Train(centralized, train.X, train.Y, nn.TrainConfig{
		Epochs: 8, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "centralized upper bound: %.3f test accuracy\n\n", nn.Evaluate(centralized, test.X, test.Y))

	central := nn.Evaluate(centralized, test.X, test.Y)
	target := 0.95 * central
	tw := table(w)
	fmt.Fprintln(tw, "alpha (non-IID)\tskew\tFedAvg r1 acc\trounds→95% of central\tFedProx r1 acc\trounds→95%")
	for _, alpha := range []float64{0.1, 1, 10} {
		prng := tensor.NewRNG(32)
		shards := dataset.PartitionDirichlet(prng, train, 8, alpha)
		skew := dataset.LabelSkew(train, shards)
		row := fmt.Sprintf("%.1f\t%.2f", alpha, skew)
		for _, mu := range []float32{0, 0.1} {
			co, err := fed.NewCoordinator(newGlobal(33), fed.MakeClients(train, shards, "c"),
				test.X, test.Y, fed.Config{
					Rounds: 15, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 34, ProximalMu: mu,
				})
			if err != nil {
				return err
			}
			firstRound := -1.0
			reached := -1
			for r := 1; r <= 15; r++ {
				s, err := co.RunRound()
				if err != nil {
					return err
				}
				if r == 1 {
					firstRound = s.TestAccuracy
				}
				if reached < 0 && s.TestAccuracy >= target {
					reached = r
				}
			}
			if reached < 0 {
				row += fmt.Sprintf("\t%.3f\t>15", firstRound)
			} else {
				row += fmt.Sprintf("\t%.3f\t%d", firstRound, reached)
			}
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nupdate compression (alpha=1, 8 rounds):")
	tw = table(w)
	fmt.Fprintln(tw, "codec\tuplink bytes\treduction\tfinal acc")
	var baseline int64
	for _, codec := range []fed.Codec{fed.NoneCodec{}, fed.Int8Codec{}, fed.TernaryCodec{}, fed.TopKCodec{Ratio: 0.05}} {
		prng := tensor.NewRNG(35)
		shards := dataset.PartitionDirichlet(prng, train, 8, 1)
		co, err := fed.NewCoordinator(newGlobal(36), fed.MakeClients(train, shards, "c"),
			test.X, test.Y, fed.Config{
				Rounds: 8, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 37, Codec: codec,
			})
		if err != nil {
			return err
		}
		stats, err := co.Run()
		if err != nil {
			return err
		}
		var up int64
		for _, s := range stats {
			up += s.UplinkBytes
		}
		if baseline == 0 {
			baseline = up
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f×\t%.3f\n", codec.Name(), up,
			float64(baseline)/float64(up), stats[len(stats)-1].TestAccuracy)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Personalization: keyword task with per-user pitch shift.
	fmt.Fprintln(w, "\npersonalization (keyword task, per-user pitch shift):")
	krng := tensor.NewRNG(38)
	kd := dataset.KeywordSeq(krng, 1500, 32, 3, 0.1, 0)
	global := nn.NewNetwork([]int{32}, nn.NewDense(32, 24, krng), nn.NewReLU(), nn.NewDense(24, 3, krng))
	if _, err := nn.Train(global, kd.X, kd.Y, nn.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: krng,
	}); err != nil {
		return err
	}
	tw = table(w)
	fmt.Fprintln(tw, "user pitch\tglobal acc\tpersonalized acc\tgain\tunlabeled (pseudo-labels) acc\tconfident")
	for _, shift := range []float32{0.2, 0.35, 0.5} {
		local := dataset.KeywordSeq(krng, 400, 32, 3, 0.1, shift)
		ltrain, ltest := local.Split(0.7, krng)
		before := nn.Evaluate(global, ltest.X, ltest.Y)
		personal, err := fed.Personalize(global, ltrain, fed.PersonalizeConfig{
			FreezeLayers: 2, Epochs: 8, BatchSize: 16, LR: 0.05, RNG: krng,
		})
		if err != nil {
			return err
		}
		after := nn.Evaluate(personal, ltest.X, ltest.Y)
		// The same user with no labels at all ("the data remains completely
		// unlabeled"): fine-tune on the global's own confident predictions.
		// Its own RNG keeps the labeled columns what they were.
		pseudo, used, err := fed.SemiSupervisedRound(global, ltrain.X, 0.9, fed.PersonalizeConfig{
			FreezeLayers: 2, Epochs: 8, BatchSize: 16, LR: 0.05, RNG: tensor.NewRNG(39),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%+.0f%%\t%.3f\t%.3f\t%+.3f\t%.3f\t%d/%d\n", shift*100, before, after, after-before,
			nn.Evaluate(pseudo, ltest.X, ltest.Y), used, ltrain.Len())
	}
	return tw.Flush()
}
