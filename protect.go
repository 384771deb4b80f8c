package tinymlops

import (
	"net"

	"tinymlops/internal/enclave"
	"tinymlops/internal/fed"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/metering"
	"tinymlops/internal/verify"
)

// IP protection (§V).

// EncryptedModel is a model artifact sealed for distribution.
type EncryptedModel = ipprot.EncryptedModel

// EncryptModel seals artifact bytes under the vendor key.
func EncryptModel(vendorKey []byte, modelID string, artifact []byte) (*EncryptedModel, error) {
	return ipprot.EncryptModel(vendorKey, modelID, artifact)
}

// DecryptModel unwraps and decrypts a sealed artifact.
func DecryptModel(vendorKey []byte, em *EncryptedModel) ([]byte, error) {
	return ipprot.DecryptModel(vendorKey, em)
}

// BlackBox is the attacker's query interface to a deployed model.
type BlackBox = ipprot.BlackBox

// Defense perturbs returned probabilities (prediction poisoning).
type Defense = ipprot.Defense

// ModelBlackBox wraps a network as an undefended black box.
func ModelBlackBox(net *Network) BlackBox { return ipprot.ModelBlackBox(net) }

// Defend wraps a black box with a prediction-poisoning defense.
func Defend(bb BlackBox, d Defense) BlackBox { return ipprot.Defend(bb, d) }

// Prediction-poisoning defenses.
type (
	// NoDefense returns probabilities untouched.
	NoDefense = ipprot.NoDefense
	// RoundDefense rounds probabilities to a fixed precision.
	RoundDefense = ipprot.RoundDefense
	// Top1Defense returns only the hard label.
	Top1Defense = ipprot.Top1Defense
	// NoiseDefense adds argmax-preserving noise.
	NoiseDefense = ipprot.NoiseDefense
	// DeceptiveDefense redistributes non-argmax mass adversarially.
	DeceptiveDefense = ipprot.DeceptiveDefense
)

// ExtractionConfig controls the student-teacher stealing attack.
type ExtractionConfig = ipprot.ExtractConfig

// ExtractModel runs the indirect model-stealing attack against a black
// box.
func ExtractModel(bb BlackBox, student *Network, queries *Tensor, cfg ExtractionConfig) (int, error) {
	return ipprot.Extract(bb, student, queries, cfg)
}

// Agreement returns argmax agreement between two black boxes.
func Agreement(a, b BlackBox, x *Tensor) float64 { return ipprot.Agreement(a, b, x) }

// StaticWatermarkConfig configures a white-box mark. It has no fields: the
// mark rides the first dense layer.
type StaticWatermarkConfig = ipprot.StaticWMConfig

// DefaultStaticWatermarkConfig is the one white-box mark configuration.
func DefaultStaticWatermarkConfig() StaticWatermarkConfig { return ipprot.DefaultStaticWMConfig() }

// EmbedWatermark embeds an owner-keyed bit string into the model weights.
func EmbedWatermark(net *Network, key string, bits []bool, cfg StaticWatermarkConfig) error {
	return ipprot.EmbedStatic(net, key, bits, cfg)
}

// ExtractWatermark reads a static watermark back (white-box).
func ExtractWatermark(net *Network, key string, capacity int, cfg StaticWatermarkConfig) ([]bool, error) {
	return ipprot.ExtractStatic(net, key, capacity, cfg)
}

// WatermarkBits derives an owner's payload from a key.
func WatermarkBits(key string, n int) []bool { return ipprot.KeyedBits(key, n) }

// BitErrorRate compares an extracted mark against the original.
func BitErrorRate(want, got []bool) float64 { return ipprot.BitErrorRate(want, got) }

// TriggerSet is a dynamic (black-box) watermark.
type TriggerSet = ipprot.TriggerSet

// NewTriggerSet derives a secret trigger set from the owner key.
func NewTriggerSet(key string, k int, inputShape []int, numClasses int) TriggerSet {
	return ipprot.NewTriggerSet(key, k, inputShape, numClasses)
}

// EmbedTriggerWatermark fine-tunes net to answer the trigger set with the
// owner's labels.
func EmbedTriggerWatermark(net *Network, triggers TriggerSet, trainX *Tensor, trainY []int, epochs int, rng *RNG) error {
	return ipprot.EmbedDynamic(net, triggers, trainX, trainY, epochs, rng)
}

// VerifyTriggerWatermark returns a suspect model's trigger recall
// (black-box ownership evidence).
func VerifyTriggerWatermark(net *Network, triggers TriggerSet) float64 {
	return ipprot.VerifyDynamic(net, triggers)
}

// NewQueryDetector returns the PRADA-style extraction-attack detector with
// standard settings.
func NewQueryDetector() *ipprot.QueryDetector { return ipprot.DefaultQueryDetector() }

// ScrambleModel key-locks a model's hidden channels (ref [83]).
func ScrambleModel(net *Network, key string) error { return ipprot.ScrambleNetwork(net, key) }

// UnscrambleModel restores a key-locked model.
func UnscrambleModel(net *Network, key string) error { return ipprot.UnscrambleNetwork(net, key) }

// Verifiable execution (§VI).

// InferenceProof accompanies a batch of verifiable inference results.
type InferenceProof = verify.InferenceProof

// ProveInference runs verifiable int8 inference, returning logits plus
// sum-check proofs for every dense layer.
func ProveInference(net *Network, x *Tensor) (*InferenceProof, error) {
	return verify.ProveInference(net, x)
}

// VerifyInference checks an inference proof against the verifier's own
// copies of the model and input without re-executing the matrix products.
// The stats count prover/verifier field multiplications and proof bytes.
func VerifyInference(net *Network, x *Tensor, ip *InferenceProof) (bool, verify.Stats, error) {
	return verify.VerifyInference(net, x, ip)
}

// NewEnclave provisions a simulated secure processing environment (sealing,
// attestation, slowdown cost model) from a manufacturer root key.
func NewEnclave(id string, rootKey []byte, slowdown float64) (*enclave.Enclave, error) {
	return enclave.New(id, rootKey, slowdown)
}

// VerifyAttestation checks an enclave report against the root key.
func VerifyAttestation(rootKey []byte, r enclave.Report) bool {
	return enclave.VerifyReport(rootKey, r)
}

// Federated learning (§III-D).

// FederatedClient is one participant with a private shard.
type FederatedClient = fed.Client

// FederatedConfig controls federated optimization.
type FederatedConfig = fed.Config

// UpdateCodec compresses federated uplink updates.
type UpdateCodec = fed.Codec

// Update codecs.
type (
	// RawCodec ships float32 updates (baseline).
	RawCodec = fed.NoneCodec
	// Int8Codec quantizes updates 4×.
	Int8Codec = fed.Int8Codec
	// TernaryCodec compresses updates 16× (TernGrad-style).
	TernaryCodec = fed.TernaryCodec
	// TopKCodec keeps only the largest coordinates.
	TopKCodec = fed.TopKCodec
)

// NewFederatedCoordinator builds a coordinator that runs FedAvg/FedProx
// rounds around a global model.
func NewFederatedCoordinator(global *Network, clients []*FederatedClient, testX *Tensor, testY []int, cfg FederatedConfig) (*fed.Coordinator, error) {
	return fed.NewCoordinator(global, clients, testX, testY, cfg)
}

// MakeFederatedClients shards a dataset into clients.
func MakeFederatedClients(ds *Dataset, shards [][]int, idPrefix string) []*FederatedClient {
	return fed.MakeClients(ds, shards, idPrefix)
}

// HierFederatedConfig controls two-tier hierarchical federated rounds.
type HierFederatedConfig = fed.HierConfig

// PersonalizeConfig controls local fine-tuning with layer freezing.
type PersonalizeConfig = fed.PersonalizeConfig

// Personalize fine-tunes a global model on a client's private data.
func Personalize(global *Network, data *Dataset, cfg PersonalizeConfig) (*Network, error) {
	return fed.Personalize(global, data, cfg)
}

// Settlement service (§III-C).

// ServeSettlement starts the platform's vendor-side TCP settlement service
// on a listener; devices reconcile their hash-chained usage logs against it
// when they reconnect. Close the returned server when done.
func ServeSettlement(l net.Listener, p *Platform) *metering.Server {
	return metering.Serve(l, p.Settler)
}
