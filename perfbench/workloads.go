package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"snapea/internal/dataset"
	"snapea/internal/models"
	"snapea/internal/snapea"
	"snapea/internal/tensor"
)

// Serving mode names, as /v1/predict's mode parameter spells them.
const (
	exact      = "exact"
	predictive = "predictive"
)

// Tune workload settings: the snapea-tune defaults.
const (
	tuneNet       = "googlenet"
	tuneSeed      = 42
	tuneEps       = 0.03
	tuneOptImages = 6
	tuneTrain     = 40
	tuneCalib     = 6
)

// inputsPerModel is the fixed set of timed inputs each model cycles
// through, and probesPerKind the number of dataset and of signed probe
// inputs in the correctness sweep.
const (
	inputsPerModel = 16
	probesPerKind  = 8
)

// target is one served (model, mode).
type target struct {
	Model, Mode string
}

func (t target) String() string { return t.Model + "/" + t.Mode }

// workload describes one traffic mix against the serving stack. All
// loops are closed: each caller sends its next request when the reply
// arrives.
type workload struct {
	Name    string
	Models  []string // served and preloaded
	Params  []string // models that also serve predictive mode
	Callers int
	JSON    bool // JSON bodies instead of raw float32
	Gateway bool // cluster gateway in front of two replicas
	// Targets lists what the callers send to; see schedule for which
	// caller sends where.
	Targets []target
}

var workloads = map[string]*workload{
	"interactive": {
		Name:    "interactive",
		Models:  []string{"squeezenet", "alexnet", "googlenet"},
		Params:  []string{"squeezenet", "alexnet", "googlenet"},
		Callers: 1,
	},
	"batched": {
		Name:    "batched",
		Models:  []string{"alexnet"},
		Params:  []string{"alexnet"},
		Callers: 16,
	},
	"gateway-light": {
		Name:    "gateway-light",
		Models:  []string{"tinynet"},
		Callers: 8,
		JSON:    true,
		Gateway: true,
	},
	"tune": {Name: "tune"},
}

func init() {
	for _, w := range workloads {
		for _, m := range w.Models {
			w.Targets = append(w.Targets, target{m, exact})
			if contains(w.Params, m) {
				w.Targets = append(w.Targets, target{m, predictive})
			}
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// buildServed builds a model exactly as serve.New's registry does with
// production defaults (reduced scale, 10 classes, seed 42).
func buildServed(name string) (*models.Model, error) {
	return models.Build(name, models.Options{Scale: models.Reduced, Classes: 10, Seed: 42})
}

// modelSalt keeps each model's generated inputs distinct for one seed.
func modelSalt(name string) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// timedInputs are the workload seed's dataset images for one model:
// pixels in [0,1], the inputs every timed request cycles through.
func timedInputs(m *models.Model, seed uint64) []*tensor.Tensor {
	samples := dataset.Generate(inputsPerModel, dataset.Config{
		HW:   m.InputShape.H,
		Seed: seed*0x9E3779B97F4A7C15 ^ modelSalt(m.Name) | 1,
	})
	out := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		out[i] = s.Image
	}
	return out
}

// probeInputs is the fixed correctness-sweep set for one model,
// independent of the workload seed: dataset images followed by signed
// N(0,1) inputs, the kind snapea-load sends.
func probeInputs(m *models.Model) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, s := range dataset.Generate(probesPerKind, dataset.Config{HW: m.InputShape.H, Seed: 9001}) {
		out = append(out, s.Image)
	}
	rng := tensor.NewRNG(9002 ^ modelSalt(m.Name))
	for i := 0; i < probesPerKind; i++ {
		t := tensor.New(m.InputShape)
		tensor.FillNorm(t, rng, 0, 1)
		out = append(out, t)
	}
	return out
}

// fixturePath is where the predictive params for a model are kept.
func fixturePath(root, model string) string {
	return filepath.Join(root, "perfbench", "fixtures", model+".params.json")
}

// loadFixture reads a model's params fixture, verifies it against the
// SHA256SUMS manifest and its own checksum block, and checks it fits
// the served model.
func loadFixture(root string, m *models.Model) (*snapea.ParamsFile, error) {
	path := fixturePath(root, m.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sums, err := os.ReadFile(filepath.Join(filepath.Dir(path), "SHA256SUMS"))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	want := ""
	for _, line := range strings.Split(string(sums), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == filepath.Base(path) {
			want = f[0]
		}
	}
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("%s: sha256 %s, manifest says %q", path, got, want)
	}
	f, err := snapea.ParseParamsChecked(data, true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Check(m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compileFixture compiles the predictive network serve builds from a
// params file.
func compileFixture(m *models.Model, f *snapea.ParamsFile) *snapea.Network {
	params := make(map[string]snapea.LayerParams, len(f.Layers))
	for node, p := range f.Layers {
		params[node] = p
	}
	return snapea.Compile(m, params, snapea.NegByMagnitude)
}
