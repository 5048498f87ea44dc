package dockerfile

import (
	"strings"
	"testing"

	"mlcr/internal/core"
	"mlcr/internal/image"
)

// fig5 is the paper's Figure 5 Dockerfile (abridged to the lines shown):
// an Ubuntu base, Python built from source, and PyTorch packages.
const fig5 = `FROM ubuntu:20.04
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

// The Dockerfiles of the parser tests below; they also seed
// FuzzDockerfileParse.
const managersDF = `FROM alpine:3.18
RUN apk add --no-cache nodejs npm
RUN npm install express body-parser
RUN apk -U add curl
`

const yumGoDF = `FROM centos:7
RUN yum install -y gcc libxml2
RUN go install example.com/tool@v1.2.3
`

const noiseDF = `# build stage
FROM debian:11
ENV DEBIAN_FRONTEND=noninteractive
WORKDIR /app
COPY . .
EXPOSE 8080
CMD ["./serve"]
RUN echo hello && ls -la
`

const dedupDF = `FROM alpine:3.18
RUN apk add curl && apk add curl
`

func TestParseFig5(t *testing.T) {
	res, err := ParseString(fig5)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseImage != "ubuntu:20.04" {
		t.Fatalf("base = %q", res.BaseImage)
	}
	byName := map[string]Package{}
	for _, p := range res.Packages {
		byName[p.Name] = p
	}
	// The three levels of Figure 5: ubuntu (blue/OS), python
	// (orange/language), torch+torchvision (green/runtime).
	if p, ok := byName["ubuntu"]; !ok || p.Level != image.OS || p.Version != "20.04" {
		t.Errorf("ubuntu = %+v", p)
	}
	if p, ok := byName["python"]; !ok || p.Level != image.Language || p.Version != "3.9.17" {
		t.Errorf("python = %+v", p)
	}
	if p, ok := byName["torch"]; !ok || p.Level != image.Runtime || p.Version != "2.0.1+cpu" {
		t.Errorf("torch = %+v", p)
	}
	if p, ok := byName["torchvision"]; !ok || p.Level != image.Runtime {
		t.Errorf("torchvision = %+v", p)
	}
	// apt-installed utilities land at the OS level.
	if p, ok := byName["build-essential"]; !ok || p.Level != image.OS {
		t.Errorf("build-essential = %+v", p)
	}
}

func TestFig5ImageMatchesHandTagged(t *testing.T) {
	// The automated classification must produce an image whose levels
	// match a hand-tagged equivalent (the paper's current approach).
	res, _ := ParseString(fig5)
	auto := res.Image("fig5")

	if len(auto.AtLevel(image.OS)) < 2 {
		t.Fatalf("OS level has %d packages", len(auto.AtLevel(image.OS)))
	}
	if len(auto.AtLevel(image.Language)) != 1 {
		t.Fatalf("language level = %v", auto.AtLevel(image.Language))
	}
	if len(auto.AtLevel(image.Runtime)) != 2 {
		t.Fatalf("runtime level = %v", auto.AtLevel(image.Runtime))
	}

	// A second parse of the same file is a full L3 match; changing only
	// the pip packages keeps an L2 match.
	res2, _ := ParseString(strings.Replace(fig5, "torch==2.0.1+cpu torchvision==0.15.2+cpu", "numpy==1.24", 1))
	other := res2.Image("variant")
	if lv := core.Match(&auto, &auto); lv != core.MatchL3 {
		t.Errorf("self match = %v", lv)
	}
	if lv := core.Match(&auto, &other); lv != core.MatchL2 {
		t.Errorf("runtime-variant match = %v, want MatchL2", lv)
	}
}

func TestClassifyLexicon(t *testing.T) {
	cases := []struct {
		name, installer string
		want            image.Level
	}{
		{"python3.9", "apt", image.Language}, // language wins over installer
		{"openjdk-17", "apt", image.Language},
		{"golang", "apk", image.Language},
		{"nodejs", "apk", image.Language},
		{"ca-certificates", "apt", image.OS},
		{"curl", "apk", image.OS},
		{"numpy", "pip", image.Runtime},
		{"express", "npm", image.Runtime},
		{"left-pad", "npm", image.Runtime},
		{"libxml2", "apt", image.OS}, // unknown apt package: OS
		{"somelib", "pip", image.Runtime},
		{"python", "source", image.Language},
		{"redis", "source", image.Language}, // heuristic: source builds default to Language
	}
	for _, tc := range cases {
		if got := Classify(tc.name, tc.installer); got != tc.want {
			t.Errorf("Classify(%q, %q) = %v, want %v", tc.name, tc.installer, got, tc.want)
		}
	}
}

func TestParsePackageManagers(t *testing.T) {
	res, err := ParseString(managersDF)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]image.Level{
		"alpine": image.OS, "nodejs": image.Language, "npm": image.Language,
		"express": image.Runtime, "body-parser": image.Runtime, "curl": image.OS,
	}
	got := map[string]image.Level{}
	for _, p := range res.Packages {
		got[p.Name] = p.Level
	}
	for name, lv := range want {
		if got[name] != lv {
			t.Errorf("%s level = %v, want %v (all: %v)", name, got[name], lv, got)
		}
	}
}

func TestParseYumAndGo(t *testing.T) {
	res, err := ParseString(yumGoDF)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Package{}
	for _, p := range res.Packages {
		byName[p.Name] = p
	}
	if byName["gcc"].Level != image.Language {
		t.Errorf("gcc = %+v", byName["gcc"])
	}
	if byName["libxml2"].Level != image.OS {
		t.Errorf("libxml2 = %+v", byName["libxml2"])
	}
	if p := byName["example.com/tool"]; p.Level != image.Runtime || p.Version != "v1.2.3" {
		t.Errorf("go tool = %+v", p)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	res, err := ParseString(noiseDF)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Packages) != 1 { // only the base image
		t.Fatalf("packages = %+v", res.Packages)
	}
}

func TestParseRegistryPrefixedBase(t *testing.T) {
	res, _ := ParseString("FROM registry.example.com/library/ubuntu:22.04\n")
	if res.Packages[0].Name != "ubuntu" || res.Packages[0].Version != "22.04" {
		t.Fatalf("base package = %+v", res.Packages[0])
	}
}

func TestParseUntaggedBase(t *testing.T) {
	res, _ := ParseString("FROM alpine\n")
	if res.Packages[0].Version != "latest" {
		t.Fatalf("version = %q", res.Packages[0].Version)
	}
}

func TestImageDeduplicates(t *testing.T) {
	res, _ := ParseString(dedupDF)
	im := res.Image("dedup")
	count := 0
	for _, p := range im.Packages() {
		if p.Name == "curl" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("curl appears %d times", count)
	}
}

func TestImageSizes(t *testing.T) {
	res, _ := ParseString(fig5)
	im := res.Image("fig5")
	var torch image.Package
	for _, p := range im.Packages() {
		if p.Name == "torch" {
			torch = p
		}
	}
	if torch.SizeMB != 750 {
		t.Fatalf("torch size = %v, want 750 (lexicon estimate)", torch.SizeMB)
	}
	if torch.Pull <= 0 || torch.Install <= 0 {
		t.Fatal("derived times missing")
	}
	// Unknown packages get level defaults.
	res2, _ := ParseString("FROM alpine:3.18\nRUN pip install weirdlib\n")
	im2 := res2.Image("x")
	for _, p := range im2.Packages() {
		if p.Name == "weirdlib" && p.SizeMB != 12 {
			t.Fatalf("weirdlib size = %v, want runtime default 12", p.SizeMB)
		}
	}
}

// FuzzDockerfileParse: Parse never panics, and any image built from what
// it returns matches itself at L3.
func FuzzDockerfileParse(f *testing.F) {
	for _, df := range []string{fig5, managersDF, yumGoDF, noiseDF, dedupDF,
		"FROM registry.example.com/library/ubuntu:22.04\n", "FROM alpine\n",
		"FROM alpine:3.18\nRUN pip install weirdlib\n", "FROM\n", "RUN \\\n", "\\"} {
		f.Add(df)
	}
	f.Fuzz(func(t *testing.T, df string) {
		res, err := ParseString(df)
		if err != nil {
			return
		}
		im := res.Image("fuzz")
		if lv := core.Match(&im, &im); lv != core.MatchL3 {
			t.Fatalf("image matches itself at %v, want %v", lv, core.MatchL3)
		}
	})
}
