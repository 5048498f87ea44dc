// Dockerfile-import: onboard a function from its Dockerfile. The parser
// extracts the installed packages, the classifier assigns them to MLCR's
// three levels automatically (the paper's stated future work — it relies
// on hand-written tags), and the resulting image plugs straight into the
// matching and scheduling machinery.
package main

import (
	"fmt"
	"os"

	"mlcr/internal/core"
	"mlcr/internal/dockerfile"
	"mlcr/internal/fstartbench"
	"mlcr/internal/image"
	"mlcr/internal/report"
)

// The paper's Figure 5 Dockerfile: Ubuntu base, Python built from
// source, PyTorch runtime packages.
const torchServe = `FROM ubuntu:20.04
RUN apt update && \
    apt install -y wget build-essential
RUN cd /tmp && \
    wget https://www.python.org/ftp/python/3.9.17/Python-3.9.17.tgz && \
    tar -xvf Python-3.9.17.tgz && \
    cd Python-3.9.17 && \
    ./configure --enable-optimizations && \
    make && make install
RUN pip install torch==2.0.1+cpu torchvision==0.15.2+cpu
WORKDIR /workspace
`

// A sibling service sharing the OS and language levels but a different
// runtime stack.
const flaskAPI = `FROM ubuntu:20.04
RUN apt update && apt install -y wget build-essential
RUN cd /tmp && \
    wget https://www.python.org/ftp/python/3.9.17/Python-3.9.17.tgz && \
    tar -xvf Python-3.9.17.tgz && cd Python-3.9.17 && \
    ./configure && make && make install
RUN pip install flask==2.0 gunicorn==20.1
`

func main() {
	torch := parse("torch-serve", torchServe)
	api := parse("flask-api", flaskAPI)

	// Show the automated classification (Figure 5's color coding).
	t := &report.Table{
		Title:  "automated package classification (Figure 5)",
		Header: []string{"image", "level", "packages", "size MB"},
	}
	for _, im := range []image.Image{torch, api} {
		for _, l := range image.Levels {
			var names []string
			for _, p := range im.AtLevel(l) {
				names = append(names, p.Key())
			}
			t.AddRow(im.Name, l.String(), fmt.Sprintf("%v", names), fmt.Sprintf("%.0f", im.LevelSizeMB(l)))
		}
	}
	t.Render(os.Stdout)

	// The two services match at L2: a warm torch-serve container saves
	// flask-api its OS and Python pulls.
	lv := core.Match(&api, &torch)
	fmt.Printf("\nmatch(flask-api, torch-serve container) = %v\n", lv)

	// And against the FStartBench catalog: which benchmark containers
	// could serve these imports?
	fmt.Println("\nmatches against FStartBench warm containers:")
	any := false
	for _, f := range fstartbench.Functions() {
		if l := core.Match(&api, &f.Image); l != core.NoMatch {
			fmt.Printf("  flask-api x %-22s %v\n", f.Name, l)
			any = true
		}
	}
	if !any {
		fmt.Println("  none — the imported Ubuntu base differs from every catalog base,")
		fmt.Println("  so FStartBench containers would all be cold starts for it (Table I).")
	}
	if lv == core.NoMatch {
		os.Exit(1)
	}
}

func parse(name, text string) image.Image {
	res, err := dockerfile.ParseString(text)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res.Image(name)
}
