package twinsearch_test

import (
	"fmt"
	"math"
	"math/rand"

	"twinsearch"
	"twinsearch/gen"
)

// sawtooth builds a deterministic periodic fixture: the same ramp shape
// every period, so twin structure is predictable.
func sawtooth(n, period int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i % period)
	}
	return out
}

func ExampleOpen() {
	data := sawtooth(1000, 50)
	eng, err := twinsearch.Open(data, twinsearch.Options{L: 50, NormSet: true}) // raw values
	if err != nil {
		panic(err)
	}
	// The window starting at 100 repeats every 50 points.
	matches, err := eng.Search(data[100:150], 0.001)
	if err != nil {
		panic(err)
	}
	fmt.Println("twins:", len(matches), "first:", matches[0].Start, "second:", matches[1].Start)
	// Output: twins: 20 first: 0 second: 50
}

func ExampleEngine_SearchTopK() {
	data := sawtooth(500, 40)
	// Perturb one period slightly so ranks are distinct.
	data[203] += 0.25
	eng, err := twinsearch.Open(data, twinsearch.Options{L: 40, NormSet: true})
	if err != nil {
		panic(err)
	}
	top, err := eng.SearchTopK(data[80:120], 3)
	if err != nil {
		panic(err)
	}
	for _, m := range top {
		fmt.Printf("start=%d dist=%.2f\n", m.Start, m.Dist)
	}
	// Output:
	// start=0 dist=0.00
	// start=40 dist=0.00
	// start=80 dist=0.00
}

func ExampleEngine_Search_normalized() {
	// Two periods at different amplitudes: raw values differ, but
	// per-subsequence normalization matches them by shape.
	data := make([]float64, 400)
	for i := range data {
		amp := 1.0
		if i >= 200 {
			amp = 5.0 // same shape, 5x the amplitude
		}
		data[i] = amp * math.Sin(2*math.Pi*float64(i%100)/100)
	}
	eng, err := twinsearch.Open(data, twinsearch.Options{
		L:    100,
		Norm: twinsearch.NormPerSubsequence,
	})
	if err != nil {
		panic(err)
	}
	matches, err := eng.Search(data[0:100], 0.001)
	if err != nil {
		panic(err)
	}
	aligned := 0
	for _, m := range matches {
		if m.Start%100 == 0 {
			aligned++
		}
	}
	fmt.Println("period-aligned shape twins:", aligned)
	// Output: period-aligned shape twins: 4
}

func ExampleEngine_Append() {
	data := sawtooth(300, 30)
	eng, err := twinsearch.Open(data, twinsearch.Options{L: 30, NormSet: true})
	if err != nil {
		panic(err)
	}
	before := eng.NumSubsequences()
	if err := eng.Append(sawtooth(60, 30)...); err != nil {
		panic(err)
	}
	fmt.Println("windows:", before, "->", eng.NumSubsequences())
	// Output: windows: 271 -> 331
}

// Chebyshev twins against the Euclidean range that cannot miss one:
// the paper's introductory experiment (§1, Figure 1) on an EEG-like
// recording. A window within ε of the query at every timestamp is within
// ε·√L of it in Euclidean distance, but most windows at that Euclidean
// distance are no twins: they spend their whole error budget on a few
// timestamps, such as the spike the query is about.
func Example_euclideanInflation() {
	const l, eps = 100, 0.5
	data := gen.EEG(7, 20_000)
	eng, err := twinsearch.Open(data, twinsearch.Options{L: l})
	if err != nil {
		panic(err)
	}
	// The query: the window centred on the sharpest second difference.
	spike := l
	for i := l; i < len(data)-l; i++ {
		if math.Abs(data[i+1]-2*data[i]+data[i-1]) > math.Abs(data[spike+1]-2*data[spike]+data[spike-1]) {
			spike = i
		}
	}
	query := data[spike-l/2 : spike+l/2]
	twins, err := eng.Search(query, eps)
	if err != nil {
		panic(err)
	}
	// The Euclidean range, by a scan in the engine's normalized space.
	qn, limit, euclidean := eng.PrepareQuery(query), eps*eps*l, 0
	for p := 0; p+l <= len(data); p++ {
		w, s := eng.PrepareQuery(data[p:p+l]), 0.0
		for i := range qn {
			s += (qn[i] - w[i]) * (qn[i] - w[i])
		}
		if s <= limit {
			euclidean++
		}
	}
	fmt.Println("Chebyshev twins:", len(twins))
	fmt.Println("Euclidean range:", euclidean)
	// Output:
	// Chebyshev twins: 3
	// Euclidean range: 207
}

// Doublet earthquakes: events from the same fault patch leave
// near-identical waveforms at a station, sample for sample — the twin
// relation under per-window normalization, since the same patch can
// slip with a different moment. A synthetic seismogram holds events
// from four sources, source 0 a repeater; twin search on one event of
// source 0 finds the other events of source 0.
func Example_doublets() {
	const eventLen = 200
	rng := rand.New(rand.NewSource(99))
	data := make([]float64, 30_000)
	for i := range data {
		data[i] = 0.05 * rng.NormFloat64() // microseismic background
	}
	type source struct{ freq, amp [3]float64 }
	sources := make([]source, 4)
	for i := range sources {
		for j := range 3 {
			sources[i].freq[j] = (1 + rng.Float64()*11) * 2 * math.Pi / 50
			sources[i].amp[j] = 0.4 + rng.Float64()*1.2
		}
	}
	type event struct{ at, src int }
	var events []event
	for at := 1_000; at < len(data)-2*eventLen; at += eventLen + 1_000 + rng.Intn(3_000) {
		e := event{at, rng.Intn(len(sources))}
		if rng.Float64() < 0.4 {
			e.src = 0
		}
		for i := range eventLen {
			env, v := math.Exp(-float64(i)/eventLen), 0.0
			for j := range 3 {
				v += sources[e.src].amp[j] * env * math.Sin(sources[e.src].freq[j]*float64(i))
			}
			data[at+i] += v * (1 + 0.02*rng.NormFloat64()) // near-, not exactly, identical
		}
		events = append(events, e)
	}
	eng, err := twinsearch.Open(data, twinsearch.Options{L: eventLen, Norm: twinsearch.NormPerSubsequence})
	if err != nil {
		panic(err)
	}
	q := events[0]
	for _, e := range events {
		if e.src == 0 {
			q = e
			break
		}
	}
	matches, err := eng.Search(data[q.at:q.at+eventLen], 0.6)
	if err != nil {
		panic(err)
	}
	// Fold the overlapping matched windows into catalogue events.
	fired := 0
	for _, e := range events {
		if e.src == 0 {
			fired++
		}
		for _, m := range matches {
			if m.Start > e.at-eventLen/4 && m.Start < e.at+eventLen/4 {
				fmt.Printf("event at %d: source %d\n", e.at, e.src)
				break
			}
		}
	}
	fmt.Printf("source 0 fired %d times in %d events\n", fired, len(events))
	// Output:
	// event at 2632: source 0
	// event at 10274: source 0
	// event at 13272: source 0
	// event at 21076: source 0
	// event at 23301: source 0
	// event at 24537: source 0
	// event at 26415: source 0
	// source 0 fired 7 times in 12 events
}

// Traffic days with the same bin-for-bin profile: a loop detector's
// 5-minute vehicle counts over four weeks, weekday and weekend demand
// curves, day-to-day demand level, noise, and incidents that collapse
// the flow for 90 minutes. Under per-window normalization twin search
// compares each day's shape; one deviating stretch — an incident —
// disqualifies a day however well the rest fits.
func Example_trafficDays() {
	const binsPerDay, days = 288, 28
	rng := rand.New(rand.NewSource(2024))
	gauss := func(x, mu, sigma float64) float64 { return math.Exp(-(x - mu) * (x - mu) / (2 * sigma * sigma)) }
	var data []float64
	incident := make([]bool, days)
	for d := range days {
		weekend, demand := d%7 >= 5, 1+0.15*rng.NormFloat64()
		incident[d] = rng.Float64() < 0.18
		at := 90 + rng.Intn(140)
		for b := range binsPerDay {
			h := float64(b) / binsPerDay * 24
			v := 30 + 230*gauss(h, 8.2, 1.1) + 200*gauss(h, 17.6, 1.4) + 60*gauss(h, 13, 3)
			if weekend {
				v = 40 + 140*gauss(h, 14, 4.5)
			}
			v *= demand
			if incident[d] && b >= at && b < at+18 {
				v *= 0.35
			}
			data = append(data, max(v+6*rng.NormFloat64(), 0))
		}
	}
	eng, err := twinsearch.Open(data, twinsearch.Options{L: binsPerDay, Norm: twinsearch.NormPerSubsequence})
	if err != nil {
		panic(err)
	}
	const tuesday = 15
	matches, err := eng.Search(data[tuesday*binsPerDay:(tuesday+1)*binsPerDay], 0.6)
	if err != nil {
		panic(err)
	}
	// The engine indexes every offset; the operator compares whole days.
	var like []int
	for _, m := range matches {
		if d := m.Start / binsPerDay; m.Start%binsPerDay == 0 && d != tuesday {
			like = append(like, d)
		}
	}
	var clean, blocked []int
	for d := range days {
		if d%7 < 5 && !incident[d] {
			clean = append(clean, d)
		} else if d%7 < 5 {
			blocked = append(blocked, d)
		}
	}
	fmt.Println("days like day 15:", like)
	fmt.Println("weekdays without an incident:", clean)
	fmt.Println("weekdays with one:", blocked)
	// Output:
	// days like day 15: [0 1 2 3 4 7 9 10 16 17 21 22 23 24 25]
	// weekdays without an incident: [0 1 2 3 4 7 9 10 15 16 17 21 22 23 24 25]
	// weekdays with one: [8 11 14 18]
}
