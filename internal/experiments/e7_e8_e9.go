package experiments

import (
	"fmt"
	"io"
	"time"

	"tinymlops/internal/compat"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// RunE7 prints the native-support matrix, contrasts it with procvm
// portability, shows the batch-norm lowering pass rescuing a target, and
// sweeps the edge-cloud split point over bandwidth.
func RunE7(w io.Writer) error {
	rng := tensor.NewRNG(40)
	reg := registry.New()
	mlp := nn.NewNetwork([]int{16}, nn.NewDense(16, 32, rng), nn.NewReLU(), nn.NewDense(32, 4, rng))
	bnMLP := nn.NewNetwork([]int{16}, nn.NewDense(16, 32, rng), nn.NewBatchNorm1D(32), nn.NewReLU(), nn.NewDense(32, 4, rng))
	conv := nn.NewNetwork([]int{1, 12, 12},
		nn.NewConv2D(1, 4, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), nn.NewFlatten(), nn.NewDense(144, 4, rng))

	var models []*registry.ModelVersion
	mv, err := reg.RegisterModel("mlp", mlp, 0.9)
	if err != nil {
		return err
	}
	models = append(models, mv)
	q8, _ := quant.FakeQuantizeNetwork(mlp, quant.Int8)
	v8, err := reg.RegisterVariant(mv.ID, q8, quant.Int8, 0, 0.89)
	if err != nil {
		return err
	}
	models = append(models, v8)
	qt, _ := quant.FakeQuantizeNetwork(mlp, quant.Ternary)
	vt, err := reg.RegisterVariant(mv.ID, qt, quant.Ternary, 0, 0.84)
	if err != nil {
		return err
	}
	models = append(models, vt)
	bv, err := reg.RegisterModel("bn-mlp", bnMLP, 0.91)
	if err != nil {
		return err
	}
	models = append(models, bv)
	cv, err := reg.RegisterModel("convnet", conv, 0.93)
	if err != nil {
		return err
	}
	models = append(models, cv)

	targets := device.StandardProfiles()
	matrix := compat.Matrix(models, targets)
	tw := table(w)
	header := "model"
	for _, tgt := range targets {
		header += "\t" + tgt.Name
	}
	fmt.Fprintln(tw, header)
	labels := []string{"mlp/fp32", "mlp/int8", "mlp/ternary", "bn-mlp/fp32", "convnet/fp32"}
	for i, row := range matrix {
		line := labels[i]
		for _, rep := range row {
			line += "\t" + rep.Summary()
		}
		fmt.Fprintln(tw, line)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nnative deployability: %.0f%% of (model,target) pairs\n", 100*compat.Coverage(matrix))

	// procvm: the same pipeline module runs on every target.
	module, err := procvm.NewBuilder("preprocess").Input().Clamp(-4, 4).Softmax().Build()
	if err != nil {
		return err
	}
	ok := 0
	for range targets {
		// Every target ships the interpreter; behaviour is bit-identical.
		if _, err := procvm.NewRuntime(procvm.CapNone).Run(module, []float32{1, 2, 3}); err == nil {
			ok++
		}
	}
	digest := module.Digest()
	fmt.Fprintf(w, "procvm pipeline modules: %d/%d targets (portable by construction, digest %x…)\n",
		ok, len(targets), digest[:4])

	// Lowering: batch-norm folding rescues the npu-board target.
	npu, _ := device.ProfileByName("npu-board")
	res, err := compat.Lower(bnMLP, npu)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "lowering bn-mlp for npu-board: passes %v -> ops %v\n", res.Passes, res.Network.OpKinds())

	// Workload brokering: every profile offers spare capacity at its energy
	// cost (3× on battery) with a 6000-MAC budget, and each model goes to the
	// cheapest host that has its ops, fits it, meets its latency bound and
	// still has budget — so the convnet spills to the next-cheapest host.
	fmt.Fprintln(w, "\nworkload brokering (one offer per profile; odd profiles on battery):")
	var offers []market.Offer
	for i, tgt := range targets {
		d := device.NewDevice(tgt.Name, tgt, tensor.NewRNG(uint64(41+i)))
		d.SetBehavior(float64(1-i%2), 1, 0)
		d.Tick()
		offers = append(offers, market.NewOffer(d, 1, 2, procvm.CapNone, 6000))
	}
	var jobs []market.Workload
	for _, v := range []*registry.ModelVersion{mv, bv, cv} {
		jobs = append(jobs, market.Workload{
			ID: v.Name + "/fp32", MACs: v.Metrics.MACs, Bits: 32, RequiredOps: v.OpKinds,
			ModelBytes: int64(v.Metrics.SizeBytes), RAMBytes: v.Metrics.PeakActivationBytes,
			MaxLatency: time.Millisecond, MaxPricePerGMAC: 1,
		})
	}
	placed, unplaced := market.Match(jobs, offers)
	tw = table(w)
	fmt.Fprintln(tw, "workload\thost\tprice/GMAC\tlatency")
	for _, a := range placed {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%v\n", a.WorkloadID, a.DeviceID, a.PricePerGMAC, a.Latency)
	}
	for _, id := range unplaced {
		fmt.Fprintf(tw, "%s\t(no feasible offer)\t\t\n", id)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Edge-cloud split point vs bandwidth: a weak device with a large
	// model, so the optimum actually moves with the link (§IV refs
	// [62]-[65]).
	fmt.Fprintln(w, "\nedge-cloud split (m0-sensor device, edge-gateway cloud, rtt 5ms):")
	big := nn.NewNetwork([]int{64},
		nn.NewDense(64, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 8, rng))
	costs, _ := big.Summary() // the plan NewNetwork kept; it cannot fail
	m0, _ := device.ProfileByName("m0-sensor")
	cloud, _ := device.ProfileByName("edge-gateway")
	tw = table(w)
	fmt.Fprintln(tw, "bandwidth\tbest cut (of 5 layers)\tdevice\ttx\tcloud\ttotal")
	for _, bw := range []float64{2.5e6, 125e3, 12.5e3, 100, 0} {
		best, _, err := market.BestSplit(costs, m0, cloud, 32, bw, 5*time.Millisecond, 64*4)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%.1f KB/s", bw/1e3)
		if bw == 0 {
			label = "offline"
		}
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\n", label, best.Cut,
			best.DeviceLatency.Round(time.Microsecond), best.TxLatency.Round(time.Microsecond),
			best.CloudLatency.Round(time.Microsecond), best.Total.Round(time.Microsecond))
	}
	return tw.Flush()
}

// RunE8 sweeps watermark capacity against fidelity and robustness against
// pruning and fine-tuning, for static and dynamic marks.
func RunE8(w io.Writer) error {
	net, train, test, err := trainBlobs(50, 2000, 8, 4, 3, 64)
	if err != nil {
		return err
	}
	baseAcc := nn.Evaluate(net, test.X, test.Y)
	fmt.Fprintf(w, "carrier model: %.3f accuracy, %d weights in carrier layer\n\n", baseAcc, 8*64)

	tw := table(w)
	fmt.Fprintln(tw, "capacity (bits)\tBER\taccuracy after embed\tfidelity cost")
	for _, capBits := range []int{16, 64, 128, 256} {
		m := net.Clone()
		bits := ipprot.KeyedBits("owner", capBits)
		if err := ipprot.EmbedStatic(m, "owner", bits, ipprot.DefaultStaticWMConfig()); err != nil {
			return err
		}
		got, err := ipprot.ExtractStatic(m, "owner", capBits, ipprot.DefaultStaticWMConfig())
		if err != nil {
			return err
		}
		acc := nn.Evaluate(m, test.X, test.Y)
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%+.3f\n", capBits, ipprot.BitErrorRate(bits, got), acc, acc-baseAcc)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Robustness: prune / fine-tune the marked model, re-extract. The
	// dynamic mark is embedded first (it trains every weight and would
	// otherwise wash out the static projection mark — exactly the
	// fragility §V attributes to static schemes).
	fmt.Fprintln(w, "\nrobustness (static 64-bit mark + dynamic 30-trigger mark):")
	marked := net.Clone()
	triggers := ipprot.NewTriggerSet("owner", 30, []int{8}, 4)
	rng := tensor.NewRNG(51)
	if err := ipprot.EmbedDynamic(marked, triggers, train.X, train.Y, 6, rng); err != nil {
		return err
	}
	bits := ipprot.KeyedBits("owner", 64)
	if err := ipprot.EmbedStatic(marked, "owner", bits, ipprot.DefaultStaticWMConfig()); err != nil {
		return err
	}
	tw = table(w)
	fmt.Fprintln(tw, "distortion\tstatic BER\ttrigger recall\ttask acc")
	report := func(name string, m *nn.Network) error {
		got, err := ipprot.ExtractStatic(m, "owner", 64, ipprot.DefaultStaticWMConfig())
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t%.3f\n", name,
			ipprot.BitErrorRate(bits, got), ipprot.VerifyDynamic(m, triggers),
			nn.Evaluate(m, test.X, test.Y))
		return nil
	}
	if err := report("none", marked); err != nil {
		return err
	}
	for _, frac := range []float64{0.3, 0.5, 0.7, 0.9} {
		m := marked.Clone()
		if _, err := quant.MagnitudePrune(m, frac); err != nil {
			return err
		}
		if err := report(fmt.Sprintf("prune %.0f%%", frac*100), m); err != nil {
			return err
		}
	}
	m := marked.Clone()
	attackerData := train.Subset(tensor.NewRNG(52).Perm(300))
	if err := ipprot.FineTuneAttack(m, attackerData, 10, 0.05, tensor.NewRNG(53)); err != nil {
		return err
	}
	if err := report("fine-tune (300 ex, 10 ep)", m); err != nil {
		return err
	}
	return tw.Flush()
}

// RunE9 runs the extraction attack across query budgets and defenses, and
// the stealing-query detector.
func RunE9(w io.Writer) error {
	rng := tensor.NewRNG(60)
	ds := dataset.Blobs(rng, 3000, 8, 5, 1.6)
	train, test := ds.Split(0.7, rng)
	victim := nn.NewNetwork([]int{8}, nn.NewDense(8, 48, rng), nn.NewReLU(), nn.NewDense(48, 5, rng))
	if _, err := nn.Train(victim, train.X, train.Y, nn.TrainConfig{
		Epochs: 12, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}
	bb := ipprot.ModelBlackBox(victim)
	eval := test.X.RowSlice(0, 400)
	fmt.Fprintf(w, "victim accuracy %.3f; clone agreement on 400 held-out inputs:\n\n",
		nn.Evaluate(victim, test.X, test.Y))

	defenses := []ipprot.Defense{
		ipprot.NoDefense{}, ipprot.RoundDefense{Decimals: 1}, ipprot.Top1Defense{},
		ipprot.NoiseDefense{Std: 0.08, RNG: tensor.NewRNG(61)}, ipprot.DeceptiveDefense{},
	}
	budgets := []int{40, 150, 500}
	tw := table(w)
	head := "defense"
	for _, b := range budgets {
		head += fmt.Sprintf("\tq=%d agree", b)
	}
	head += "\tprob-L1@500"
	fmt.Fprintln(tw, head)
	victimProbs := bb(eval)
	for _, d := range defenses {
		line := d.Name()
		var last *nn.Network
		for _, budget := range budgets {
			srng := tensor.NewRNG(100 + uint64(budget))
			student := nn.NewNetwork([]int{8}, nn.NewDense(8, 48, srng), nn.NewReLU(), nn.NewDense(48, 5, srng))
			if _, err := ipprot.Extract(ipprot.Defend(bb, d), student, train.X.RowSlice(0, budget),
				ipprot.ExtractConfig{Epochs: 20, LR: 0.05, RNG: srng}); err != nil {
				return err
			}
			line += fmt.Sprintf("\t%.3f", ipprot.Agreement(bb, ipprot.ModelBlackBox(student), eval))
			last = student
		}
		// Distributional fidelity of the 500-query clone: poisoning that
		// preserves the argmax still corrupts the clone's probabilities,
		// which is what downstream abuse (confidence-based APIs,
		// further distillation) depends on.
		sp := nn.SoftmaxRows(last.Predict(eval))
		var l1 float64
		for i := range sp.Data {
			dlt := float64(sp.Data[i] - victimProbs.Data[i])
			if dlt < 0 {
				dlt = -dlt
			}
			l1 += dlt
		}
		line += fmt.Sprintf("\t%.3f", l1/float64(eval.Dim(0)))
		fmt.Fprintln(tw, line)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Detection.
	det := ipprot.DefaultQueryDetector()
	for i := 0; i < 500; i++ {
		row := make([]float32, 8)
		r := rng.Intn(train.Len())
		for f := 0; f < 8; f++ {
			row[f] = train.X.At2(r, f)
		}
		det.Observe(row)
	}
	fmt.Fprintf(w, "\nPRADA-style detector: benign 500-query stream flagged=%v (K²=%.1f)\n", det.Flagged(), det.Score())
	det.Reset()
	seed := make([]float32, 8)
	flaggedAt := -1
	for i := 0; i < 1000 && flaggedAt < 0; i++ {
		q := make([]float32, 8)
		if i%10 == 0 {
			r := rng.Intn(train.Len())
			for f := 0; f < 8; f++ {
				q[f] = train.X.At2(r, f)
			}
			copy(seed, q)
		} else {
			copy(q, seed)
			q[rng.Intn(8)] += 0.01
		}
		det.Observe(q)
		if det.Flagged() {
			flaggedAt = i
		}
	}
	fmt.Fprintf(w, "perturbation attacker flagged at query %d\n", flaggedAt)
	return nil
}
