// Command roadmap generates the paper's thermally-constrained technology
// roadmap: Table 3 (RPM required for the 40% IDR CGR and its thermal cost),
// Figure 2 (attainable IDR and capacity, 1/2/4 platters x 3 platter sizes),
// Figure 3 (cooling sensitivity), and the section 4.2.2 form-factor study.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/geometry"
	"repro/internal/plot"
	"repro/internal/scaling"
	"repro/internal/units"
)

var sizes = []units.Inches{2.6, 2.1, 1.6}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "roadmap:", err)
		os.Exit(1)
	}
}

// run parses the command-line flags in args and writes the selected
// sections to w. The workers flag is threaded into every roadmap and walk
// configuration (0 = all cores).
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("roadmap", flag.ContinueOnError)
	var (
		table3     = fs.Bool("table3", true, "print Table 3")
		figure2    = fs.Bool("figure2", true, "print the Figure 2 roadmaps")
		figure3    = fs.Bool("figure3", true, "print the Figure 3 cooling study")
		formfactor = fs.Bool("formfactor", false, "print the 2.5\" form-factor study")
		chart      = fs.Bool("plot", false, "draw the Figure 2 1-platter IDR roadmap as an ASCII chart")
		walk       = fs.Bool("walk", false, "run the section 4 design walk (the methodology steps 1-4, year by year)")
		workers    = fs.Int("workers", 0, "sweep worker count (0 = all cores, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tables(w, *workers, *table3, *figure2, *figure3, *formfactor); err != nil {
		return err
	}
	if *chart {
		if err := drawFigure2(w, *workers); err != nil {
			return err
		}
	}
	if *walk {
		return runWalk(w, *workers)
	}
	return nil
}

// runWalk prints the year-by-year design decisions of the paper's section 4
// methodology.
func runWalk(w io.Writer, workers int) error {
	steps, err := scaling.DesignWalk(scaling.WalkConfig{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section 4 design walk (what a designer ships each year):")
	for _, s := range steps {
		meets := " "
		if s.MeetsTarget {
			meets = "*"
		}
		fmt.Fprintf(w, "  %d %s %v x%d @ %6.0f RPM: %7.1f MB/s, %7.1f GB  %s\n",
			s.Year, meets, s.Size, s.Platters, float64(s.RPM),
			float64(s.IDR), s.Capacity.GB(), s.Action)
	}
	return nil
}

// drawFigure2 renders the 1-platter IDR roadmap the way the paper plots it:
// log-scale IDR against year, one curve per platter size plus the 40% CGR
// target line.
func drawFigure2(w io.Writer, workers int) error {
	pts, err := scaling.Roadmap(scaling.Config{Workers: workers})
	if err != nil {
		return err
	}
	idx := scaling.ByYearSize(pts)
	years := make([]float64, 0, 11)
	target := make([]float64, 0, 11)
	for y := 2002; y <= 2012; y++ {
		years = append(years, float64(y))
		target = append(target, float64(scaling.TargetIDR(y)))
	}
	var c plot.Chart
	c.Title = "Figure 2: 1-platter IDR roadmap (thermal envelope 45.22 C)"
	c.XLabel = "year"
	c.YLabel = "IDR MB/s"
	c.LogY = true
	if err := c.Add(plot.Series{Name: "40% CGR target", X: years, Y: target, Marker: '.'}); err != nil {
		return err
	}
	for _, s := range sizes {
		ys := make([]float64, 0, 11)
		for y := 2002; y <= 2012; y++ {
			ys = append(ys, float64(idx[y][s].MaxIDR))
		}
		if err := c.Add(plot.Series{Name: fmt.Sprintf("%v platter", s), X: years, Y: ys}); err != nil {
			return err
		}
	}
	out, err := c.Render()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, out)
	return nil
}

// tables writes Table 3 and Figures 2 and 3, and the form-factor study when
// asked, to w.
func tables(w io.Writer, workers int, table3, figure2, figure3, formfactor bool) error {
	base, err := scaling.Roadmap(scaling.Config{Workers: workers})
	if err != nil {
		return err
	}
	idx := scaling.ByYearSize(base)

	if table3 {
		fmt.Fprintln(w, "Table 3: RPM required for the 40% IDR CGR and its steady temperature")
		fmt.Fprintf(w, "%4s |", "Year")
		for _, s := range sizes {
			fmt.Fprintf(w, "  %5.1f\": %9s %7s %8s |", float64(s), "IDRdens", "RPM", "Temp(C)")
		}
		fmt.Fprintf(w, " %10s\n", "IDRreq")
		for y := 2002; y <= 2012; y++ {
			fmt.Fprintf(w, "%4d |", y)
			for _, s := range sizes {
				p := idx[y][s]
				fmt.Fprintf(w, "          %9.2f %7.0f %8.2f |",
					float64(p.IDRDensity), float64(p.RequiredRPM), float64(p.RequiredTemp))
			}
			fmt.Fprintf(w, " %10.2f\n", float64(scaling.TargetIDR(y)))
		}
		fmt.Fprintln(w)
	}

	if figure2 {
		for _, platters := range []int{1, 2, 4} {
			pts, err := scaling.Roadmap(scaling.Config{Platters: platters, Workers: workers})
			if err != nil {
				return err
			}
			pidx := scaling.ByYearSize(pts)
			fmt.Fprintf(w, "Figure 2: %d-platter roadmap (envelope %s; cooling budget %.2f C)\n",
				platters, "45.22 C", float64(pts[0].CoolingBudget))
			fmt.Fprintf(w, "%4s |", "Year")
			for _, s := range sizes {
				fmt.Fprintf(w, " %5.1f\": %8s %9s %9s meets |", float64(s), "maxRPM", "IDR MB/s", "Cap GB")
			}
			fmt.Fprintln(w)
			for y := 2002; y <= 2012; y++ {
				fmt.Fprintf(w, "%4d |", y)
				for _, s := range sizes {
					p := pidx[y][s]
					meets := " "
					if p.MeetsTarget {
						meets = "*"
					}
					fmt.Fprintf(w, "         %8.0f %9.1f %9.1f   %s   |",
						float64(p.MaxRPM), float64(p.MaxIDR), p.Capacity.GB(), meets)
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintln(w, "falloff year:", scaling.FalloffYear(pts))
			fmt.Fprintln(w)
		}
	}

	if figure3 {
		fmt.Fprintln(w, "Figure 3: cooling sensitivity (1 platter, max IDR in MB/s)")
		fmt.Fprintf(w, "%4s | %8s |", "Year", "target")
		for _, s := range sizes {
			fmt.Fprintf(w, " %5.1f\": %8s %8s %8s |", float64(s), "base", "-5C", "-10C")
		}
		fmt.Fprintln(w)
		cool5, err := scaling.Roadmap(scaling.Config{AmbientDelta: -5, Workers: workers})
		if err != nil {
			return err
		}
		cool10, err := scaling.Roadmap(scaling.Config{AmbientDelta: -10, Workers: workers})
		if err != nil {
			return err
		}
		i5, i10 := scaling.ByYearSize(cool5), scaling.ByYearSize(cool10)
		for y := 2002; y <= 2012; y++ {
			fmt.Fprintf(w, "%4d | %8.1f |", y, float64(scaling.TargetIDR(y)))
			for _, s := range sizes {
				fmt.Fprintf(w, "         %8.1f %8.1f %8.1f |",
					float64(idx[y][s].MaxIDR), float64(i5[y][s].MaxIDR), float64(i10[y][s].MaxIDR))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "falloff years: base %d, -5C %d, -10C %d\n\n",
			scaling.FalloffYear(base), scaling.FalloffYear(cool5), scaling.FalloffYear(cool10))
	}

	if formfactor {
		fmt.Fprintln(w, "Section 4.2.2: 2.6\" platter in a 2.5\" enclosure")
		for _, delta := range []units.Celsius{0, -5, -10, -15, -18} {
			pts, err := scaling.Roadmap(scaling.Config{
				FormFactor:   geometry.FormFactor25,
				PlatterSizes: []units.Inches{2.6},
				AmbientDelta: delta,
				Workers:      workers,
			})
			if err != nil {
				return err
			}
			p := scaling.ByYearSize(pts)[2002][2.6]
			fmt.Fprintf(w, "  ambient %+3.0f C: max RPM %6.0f, 2002 IDR %6.1f MB/s (target %.1f) meets=%v\n",
				float64(delta), float64(p.MaxRPM), float64(p.MaxIDR),
				float64(p.TargetIDR), p.MeetsTarget)
		}
	}
	return nil
}
