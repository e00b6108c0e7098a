// Package datasets generates the synthetic stand-ins for the two
// real-world series used in the paper's evaluation (§6.1):
//
//   - Insect Movement [Mueen et al. 2009]: 64,436 insect telemetry
//     (EPG) readings spanning ~30 minutes at 36 Hz. EPG recordings are
//     sequences of stereotyped waveform episodes from a small family
//     library; we model them as a per-seed motif library rendered with
//     per-episode jitter (see InsectN).
//
//   - EEG [Mueen et al. 2009]: 1,801,999 scalp-potential readings at
//     500 Hz over one hour. EEG is dominated by band-limited
//     oscillations (delta/theta/alpha/beta) whose amplitudes drift
//     slowly, plus sporadic high-amplitude spikes and measurement noise.
//     We synthesize a sum of amplitude-modulated sinusoids per band,
//     inject spike events, and add white noise.
//
// Both generators are fully deterministic given a seed, so every
// experiment in this repository is reproducible bit-for-bit. They can
// stand in for the paper's recordings because twin-search behaviour
// depends on value locality, self-similarity and burstiness, all of
// which these processes reproduce, not on the physiological origin of
// the samples.
package datasets

import "math/rand"

// Paper dataset lengths (§6.1, Table 1).
const (
	InsectLen = 64436
	EEGLen    = 1801999
)

// Insect generates an insect-telemetry-like series of the paper's length.
func Insect(seed int64) []float64 { return InsectN(seed, InsectLen) }

// InsectN generates an insect-telemetry-like series with n points.
//
// Electrical penetration graphs are sequences of stereotyped episodes
// drawn from a small library of waveform families (probing, salivation,
// ingestion, …), each family a characteristic oscillatory shape at its
// own voltage level. The generator draws a per-seed library of motif
// templates and concatenates episodes: a template rendered with small
// per-episode detuning and jitter, plus measurement noise; occasional
// spiky bursts overlay feeding episodes. Two windows match under
// Chebyshev distance essentially only when they come from the same
// family at compatible phase — giving the moderate, strongly-clustered
// twin structure that real EPG shows and that the paper's index
// comparison depends on (tight MBTS leaves, selective mean filters,
// non-trivial but far-from-exhaustive result sets).
func InsectN(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)

	const (
		families = 10
		noiseSig = 0.07
	)

	// Per-seed motif library: every family has a voltage level, two
	// superimposed oscillatory components and an optional spike habit.
	type component struct {
		freq, amp, phase float64
	}
	type family struct {
		level  float64
		comps  [2]component
		spiky  bool
		spikeP float64
	}
	lib := make([]family, families)
	for f := range lib {
		fam := family{
			// Families sit on a ladder of nearby levels: distinct, but
			// close enough that window means alone separate families
			// poorly — the regime in which the paper observes KV-Index's
			// mean filter "achieves less pruning" while MBTS shape
			// bounds still discriminate.
			level: float64(f)*0.55 - float64(families-1)*0.275 + rng.NormFloat64()*0.1,
			spiky: rng.Float64() < 0.3,
		}
		for c := range fam.comps {
			fam.comps[c] = component{
				freq:  0.15 + rng.Float64()*1.1, // radians per sample
				amp:   0.5 + rng.Float64()*1.6,
				phase: rng.Float64() * 2 * pi,
			}
		}
		fam.spikeP = 0.02 + rng.Float64()*0.05
		lib[f] = fam
	}

	cur := rng.Intn(families)
	left := 0 // samples remaining in the current episode
	var detune, ampScale float64
	var phase0, phase1 float64
	spikeLeft := 0
	spikeAmp := 0.0

	for i := 0; i < n; i++ {
		if left == 0 {
			// Episode change: usually a different family.
			if rng.Float64() < 0.85 {
				cur = rng.Intn(families)
			}
			left = 200 + rng.Intn(1400)
			// Small per-episode rendering variation: the same family
			// repeats recognizably but never identically.
			detune = 1 + rng.NormFloat64()*0.01
			ampScale = 1 + rng.NormFloat64()*0.05
			phase0 = rng.Float64() * 2 * pi
			phase1 = rng.Float64() * 2 * pi
		}
		fam := lib[cur]
		v := fam.level
		v += ampScale * fam.comps[0].amp * sin(fam.comps[0].freq*detune*float64(i)+fam.comps[0].phase+phase0)
		v += ampScale * fam.comps[1].amp * sin(fam.comps[1].freq*detune*float64(i)+fam.comps[1].phase+phase1)
		if fam.spiky {
			if spikeLeft == 0 && rng.Float64() < fam.spikeP {
				spikeLeft = 3 + rng.Intn(8)
				spikeAmp = (2 + rng.Float64()*4) * signOf(rng)
			}
			if spikeLeft > 0 {
				v += spikeAmp
				spikeLeft--
			}
		}
		out[i] = v + rng.NormFloat64()*noiseSig
		left--
	}
	return out
}

// EEG generates an EEG-like series of the paper's length.
func EEG(seed int64) []float64 { return EEGN(seed, EEGLen) }

// eegBand is one amplitude-modulated oscillatory component.
type eegBand struct {
	freqHz   float64 // center frequency
	baseAmp  float64 // nominal amplitude (µV-ish arbitrary units)
	modHz    float64 // amplitude-modulation frequency
	modDepth float64 // fraction of baseAmp swung by the modulation
}

// EEGN generates an EEG-like series with n points at a nominal 500 Hz
// sampling rate.
func EEGN(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)

	const sampleHz = 500.0
	bands := []eegBand{
		{freqHz: 2.1, baseAmp: 18, modHz: 0.013, modDepth: 0.55}, // delta
		{freqHz: 6.3, baseAmp: 9, modHz: 0.031, modDepth: 0.5},   // theta
		{freqHz: 10.2, baseAmp: 14, modHz: 0.023, modDepth: 0.6}, // alpha
		{freqHz: 21.7, baseAmp: 4, modHz: 0.047, modDepth: 0.4},  // beta
	}
	// Random initial phases keep different seeds decorrelated.
	phases := make([]float64, len(bands))
	modPhases := make([]float64, len(bands))
	for i := range bands {
		phases[i] = rng.Float64() * 2 * pi
		modPhases[i] = rng.Float64() * 2 * pi
	}

	const (
		// Noise well below band amplitude: EEG self-similarity is what
		// produces the paper's non-trivial twin counts, and a high noise
		// floor would mask it under Chebyshev distance.
		noiseSigma = 0.8
		pSpike     = 1.0 / 20000 // spike event onset probability per sample
	)

	spikeLeft := 0  // samples remaining in the active spike
	spikeAmp := 0.0 // current spike peak amplitude
	spikeLen := 0   // total length of the active spike
	drift := 0.0    // slow baseline wander
	driftTarget := 0.0

	for i := 0; i < n; i++ {
		t := float64(i) / sampleHz
		v := 0.0
		for b, band := range bands {
			amp := band.baseAmp * (1 + band.modDepth*sin(2*pi*band.modHz*t+modPhases[b]))
			v += amp * sin(2*pi*band.freqHz*t+phases[b])
		}
		// Slow baseline wander (electrode drift).
		if i%2500 == 0 {
			driftTarget = rng.NormFloat64() * 6
		}
		drift += (driftTarget - drift) * 0.0005
		v += drift

		// Sporadic spike-wave events: a sharp half-sine burst.
		if spikeLeft == 0 && rng.Float64() < pSpike {
			spikeLen = 40 + rng.Intn(80) // 80–240 ms at 500 Hz
			spikeLeft = spikeLen
			spikeAmp = (60 + rng.Float64()*80) * signOf(rng)
		}
		if spikeLeft > 0 {
			prog := float64(spikeLen-spikeLeft) / float64(spikeLen)
			v += spikeAmp * sin(pi*prog)
			spikeLeft--
		}

		v += rng.NormFloat64() * noiseSigma
		out[i] = v
	}
	return out
}

// RandomWalk generates a plain Gaussian random walk, the lightweight
// fixture most unit tests use.
func RandomWalk(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64()
		out[i] = v
	}
	return out
}

// Sine generates amp·sin(2π·i/period) + noise·N(0,1), handy for tests
// that need guaranteed self-similar structure (every period repeats).
func Sine(seed int64, n int, period float64, amp, noise float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = amp*sin(2*pi*float64(i)/period) + noise*rng.NormFloat64()
	}
	return out
}

func signOf(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return 1
	}
	return -1
}
