// Command flicker is the developer CLI for the Flicker platform simulation.
//
// Subcommands:
//
//	flicker run      — run a demo PAL in a Flicker session and print the
//	                   Figure 2 timeline and attestation values
//	flicker serve    — run sessions while exposing /metrics (Prometheus),
//	                   /stats (JSON), /events, and /healthz over HTTP
//	flicker modules  — print the PAL module inventory (Figure 6) and TCB sizes
//	flicker extract  — extract a function and its dependency closure from Go
//	                   source into a standalone PAL file (Section 5.2 tool)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"flicker"
	"flicker/internal/extract"
	"flicker/internal/pal"
	"flicker/internal/trace"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "modules":
		cmdModules()
	case "extract":
		cmdExtract(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flicker <run|serve|modules|extract> [flags]")
	os.Exit(2)
}

// profileByName resolves a latency-profile flag value.
func profileByName(name string) (*flicker.Profile, error) {
	switch name {
	case "broadcom":
		return flicker.ProfileBroadcom(), nil
	case "infineon":
		return flicker.ProfileInfineon(), nil
	case "future":
		return flicker.ProfileFuture(), nil
	default:
		return nil, fmt.Errorf("unknown profile %q", name)
	}
}

// demoPAL builds one of the CLI's demo PALs by name.
func demoPAL(name string) (flicker.PAL, error) {
	switch name {
	case "hello":
		return &flicker.PALFunc{
			PALName: "hello",
			Binary:  flicker.DescriptorCode("hello", "1.0", nil, nil),
			Fn: func(env *flicker.Env, in []byte) ([]byte, error) {
				return []byte("Hello, world"), nil
			},
		}, nil
	case "echo":
		return &flicker.PALFunc{
			PALName: "echo",
			Binary:  flicker.DescriptorCode("echo", "1.0", nil, nil),
			Fn: func(env *flicker.Env, in []byte) ([]byte, error) {
				return append([]byte("echo: "), in...), nil
			},
		}, nil
	case "seal":
		return &flicker.PALFunc{
			PALName: "seal",
			Binary:  flicker.DescriptorCode("seal", "1.0", []string{"TPM Driver", "TPM Utilities"}, nil),
			Fn: func(env *flicker.Env, in []byte) ([]byte, error) {
				blob, err := env.SealToSelf(in)
				if err != nil {
					return nil, err
				}
				back, err := env.Unseal(blob)
				if err != nil {
					return nil, err
				}
				return append([]byte("sealed+unsealed: "), back...), nil
			},
		}, nil
	default:
		return nil, fmt.Errorf("unknown PAL %q (want hello, echo, seal)", name)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	palName := fs.String("pal", "hello", "demo PAL: hello, echo, seal")
	input := fs.String("input", "", "PAL input string")
	profile := fs.String("profile", "broadcom", "latency profile: broadcom, infineon, future")
	sandbox := fs.Bool("sandbox", false, "link the OS Protection module (ring-3 PAL)")
	twoStage := fs.Bool("two-stage", false, "use the Section 7.2 optimized two-stage SLB")
	traceJSON := fs.String("trace-json", "", "write session spans as JSON to this file (\"-\" for stdout)")
	fs.Parse(args)

	prof, err := profileByName(*profile)
	if err != nil {
		log.Fatal(err)
	}
	p, err := flicker.NewPlatform(flicker.Config{Seed: "cli", Profile: prof})
	if err != nil {
		log.Fatal(err)
	}
	// -trace-json uses the same tracer/span format as the fabric and the
	// serve flight recorder, so the CLI output matches /traces/{id} exactly.
	var traced *flicker.TraceData
	var tracer *flicker.Tracer
	if *traceJSON != "" {
		tracer = flicker.NewTracer("cli", p.Clock.Now)
		tracer.OnComplete(func(td *flicker.TraceData) { traced = td })
	}

	target, err := demoPAL(*palName)
	if err != nil {
		log.Fatal(err)
	}

	nonce := flicker.SHA1Sum([]byte("cli-nonce"))
	opts := flicker.SessionOptions{
		Input:    []byte(*input),
		Nonce:    &nonce,
		Sandbox:  *sandbox,
		TwoStage: *twoStage,
	}
	root := tracer.Start("run")
	if root != nil {
		root.SetAttr("pal", *palName)
		opts.TraceID = root.TraceHex()
		opts.Observer = flicker.NewSessionTraceObserver(root)
	}
	rec := p.Clock.Record()
	res, err := p.RunSession(target, opts)
	charges := rec.Stop()
	if err != nil {
		log.Fatal(err)
	}
	root.EndErr(res.PALError)
	if res.PALError != nil {
		log.Fatalf("PAL error: %v", res.PALError)
	}
	// With -trace-json - the JSON owns stdout so it can be piped; the human
	// report moves to stderr.
	report := os.Stdout
	if *traceJSON == "-" {
		report = os.Stderr
	}
	fmt.Fprintf(report, "profile:  %s\n", prof.Name)
	fmt.Fprintf(report, "output:   %q\n", res.Outputs)
	fmt.Fprintf(report, "H(P):     %x\n", res.Measurement)
	fmt.Fprintf(report, "PCR17@0:  %x\n", res.PCR17AtLaunch)
	fmt.Fprintf(report, "PCR17@f:  %x\n", res.PCR17Final)
	fmt.Fprintln(report)
	fmt.Fprint(report, trace.RenderTimeline(res, 48))
	fmt.Fprintln(report)
	fmt.Fprint(report, trace.RenderCharges(charges))
	if traced != nil {
		raw, err := json.MarshalIndent(traceDetail{TraceData: traced, Tree: traced.Tree()}, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		raw = append(raw, '\n')
		if *traceJSON == "-" {
			if _, err := os.Stdout.Write(raw); err != nil {
				log.Fatal(err)
			}
		} else {
			if err := os.WriteFile(*traceJSON, raw, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nwrote trace %s to %s\n", traced.ID, *traceJSON)
		}
	}
}

func cmdModules() {
	fmt.Println("PAL module library (Figure 6):")
	fmt.Printf("  %-20s %6s %9s  %s\n", "module", "LoC", "size KB", "description")
	for _, m := range flicker.ModuleInventory() {
		mand := ""
		if m.Mandatory {
			mand = " (mandatory)"
		}
		fmt.Printf("  %-20s %6d %9.3f  %s%s\n", m.Name, m.LOC, m.SizeKB, m.Description, mand)
	}
	fmt.Println("\nTCB size for common configurations:")
	for _, cfg := range [][]string{
		nil,
		{"OS Protection"},
		{"TPM Driver", "TPM Utilities"},
		{"TPM Driver", "TPM Utilities", "Crypto", "Memory Management", "Secure Channel"},
	} {
		loc, kb, err := pal.TCBSize(cfg)
		if err != nil {
			log.Fatal(err)
		}
		label := "SLB Core only"
		if len(cfg) > 0 {
			label = "core + " + strings.Join(cfg, " + ")
		}
		fmt.Printf("  %-62s %5d LoC %8.3f KB\n", label, loc, kb)
	}
}

func cmdExtract(args []string) {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	target := fs.String("target", "", "function to extract (required)")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *target == "" || fs.NArg() == 0 {
		log.Fatal("usage: flicker extract -target <func> [-o out.go] <files...>")
	}
	src := make(map[string]string)
	for _, f := range fs.Args() {
		b, err := os.ReadFile(f)
		if err != nil {
			log.Fatal(err)
		}
		src[f] = string(b)
	}
	res, err := extract.Extract(src, *target)
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(res.Source)
	} else if err := os.WriteFile(*out, res.Source, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "extracted %d declarations: %s\n",
		len(res.Included), strings.Join(res.Included, ", "))
	if len(res.External) > 0 {
		fmt.Fprintf(os.Stderr, "REPLACE OR ELIMINATE these external references (cf. printf/malloc in the paper):\n")
		for _, e := range res.External {
			fmt.Fprintf(os.Stderr, "  %s\n", e)
		}
	}
}
