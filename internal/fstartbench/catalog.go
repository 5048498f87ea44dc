// Package fstartbench reproduces the FStartBench benchmark (Section V):
// 13 real-world-style serverless functions over five application
// categories (Table II), with full package metadata at the three MLCR
// levels, plus the seven workloads that exercise the three metrics —
// function similarity, package-size variance and arrival pattern — and
// the 400-invocation "overall" mix of Section VI-B.
//
// Package sizes and timings are calibrated constants chosen to reproduce
// the paper's structural observations: code pulling dominates cold starts
// (47–89%), compiled runtimes (JVM) pay a far larger initialization than
// interpreted ones (≈45% vs ≈6%), and cold starts are 1.3×–166× the
// function execution time.
package fstartbench

import (
	"fmt"
	"sync"
	"time"

	"mlcr/internal/image"
	"mlcr/internal/workload"
)

// Pull and install rates convert package size to latency: a 25 MB/s code
// registry and a 200 MB/s local unpack, which together make code pulling
// the dominant cold-start phase, as observed in Section II-A.
const (
	pullPerMB    = 40 * time.Millisecond
	installPerMB = 5 * time.Millisecond
)

// pkg builds a package with derived pull/install times.
func pkg(name, version string, level image.Level, sizeMB float64) image.Package {
	return image.Package{
		Name: name, Version: version, Level: level, SizeMB: sizeMB,
		Pull:    time.Duration(sizeMB * float64(pullPerMB)),
		Install: time.Duration(sizeMB * float64(installPerMB)),
	}
}

// Base OS package sets. The three bases share ca-certificates, openssl
// and tzdata (identical versions), mirroring the real-world overlap of
// base images that motivates multi-level reuse (Figure 3).
func alpinePkgs() []image.Package {
	return []image.Package{
		pkg("alpine-baselayout", "3.18", image.OS, 2),
		pkg("musl", "1.2.4", image.OS, 1),
		pkg("busybox", "1.36", image.OS, 1),
		pkg("apk-tools", "2.14", image.OS, 1),
		pkg("ca-certificates", "2023", image.OS, 0.5),
		pkg("openssl", "3.1", image.OS, 2),
		pkg("tzdata", "2023c", image.OS, 1.5),
	}
}

func debianPkgs() []image.Package {
	return []image.Package{
		pkg("debian-base", "11", image.OS, 22),
		pkg("glibc", "2.31", image.OS, 10),
		pkg("apt", "2.2", image.OS, 4),
		pkg("bash", "5.1", image.OS, 3),
		pkg("coreutils", "8.32", image.OS, 7),
		pkg("ca-certificates", "2023", image.OS, 0.5),
		pkg("openssl", "3.1", image.OS, 2),
		pkg("tzdata", "2023c", image.OS, 1.5),
	}
}

func centosPkgs() []image.Package {
	return []image.Package{
		pkg("centos-base", "7", image.OS, 48),
		pkg("glibc", "2.31", image.OS, 10),
		pkg("yum", "3.4", image.OS, 12),
		pkg("bash", "5.1", image.OS, 3),
		pkg("coreutils", "8.32", image.OS, 7),
		pkg("ca-certificates", "2023", image.OS, 0.5),
		pkg("openssl", "3.1", image.OS, 2),
		pkg("tzdata", "2023c", image.OS, 1.5),
	}
}

// Language-level package sets.
func javaPkgs() []image.Package {
	return []image.Package{
		pkg("openjdk", "17", image.Language, 182),
		pkg("maven-runtime", "3.9", image.Language, 8),
	}
}

func nodePkgs() []image.Package {
	return []image.Package{
		pkg("nodejs", "18", image.Language, 45),
		pkg("npm", "9", image.Language, 8),
	}
}

func goPkgs() []image.Package {
	return []image.Package{pkg("golang", "1.20", image.Language, 95)}
}

func pythonPkgs() []image.Package {
	return []image.Package{
		pkg("python", "3.9.17", image.Language, 44),
		pkg("pip", "23", image.Language, 3),
		pkg("setuptools", "68", image.Language, 2),
	}
}

func cppPkgs() []image.Package {
	return []image.Package{
		pkg("libstdc++", "11", image.Language, 40),
		pkg("gcc-libs", "11", image.Language, 35),
	}
}

// Runtime-level package sets.
func springbootPkgs() []image.Package {
	return []image.Package{
		pkg("springboot", "3.1", image.Runtime, 20),
		pkg("tomcat-embed", "10", image.Runtime, 12),
		pkg("logback", "1.4", image.Runtime, 3),
	}
}

func expressPkgs() []image.Package {
	return []image.Package{
		pkg("express", "4.18", image.Runtime, 10),
		pkg("body-parser", "1.20", image.Runtime, 2),
	}
}

func ginPkgs() []image.Package {
	return []image.Package{pkg("gin", "1.9", image.Runtime, 10)}
}

func flaskPkgs() []image.Package {
	return []image.Package{
		pkg("flask", "2.0", image.Runtime, 4),
		pkg("werkzeug", "2.0", image.Runtime, 2),
		pkg("jinja2", "3.0", image.Runtime, 1.5),
		pkg("click", "8.0", image.Runtime, 0.5),
	}
}

func numpyPkgs() []image.Package {
	return []image.Package{pkg("numpy", "1.24", image.Runtime, 28)}
}

func pandasPkgs() []image.Package {
	return []image.Package{
		pkg("pandas", "2.0", image.Runtime, 40),
		pkg("pytz", "2023", image.Runtime, 2),
	}
}

func matplotlibPkgs() []image.Package {
	return []image.Package{
		pkg("matplotlib", "3.7", image.Runtime, 30),
		pkg("pillow", "10", image.Runtime, 8),
	}
}

func tensorflowPkgs() []image.Package {
	return []image.Package{
		pkg("tensorflow", "2.13", image.Runtime, 480),
		pkg("h5py", "3.9", image.Runtime, 25),
		pkg("protobuf", "4.23", image.Runtime, 15),
	}
}

// Runtime-initialization costs per language: compiled runtimes (JVM) pay
// a large startup, interpreted ones a small one (Section II-A).
var runtimeInitByLang = map[string]time.Duration{
	"java":   1800 * time.Millisecond,
	"nodejs": 250 * time.Millisecond,
	"go":     50 * time.Millisecond,
	"python": 300 * time.Millisecond,
	"cpp":    30 * time.Millisecond,
}

func concat(sets ...[]image.Package) []image.Package {
	var out []image.Package
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

// catalogue holds the 13 functions of Table II, built once per process:
// their images are immutable, so every copy Functions hands out shares
// one set of package slices, key sets and level keys.
var (
	catalogueOnce sync.Once
	catalogue     []workload.Function
)

// Functions returns the 13 FStartBench functions of Table II as fresh
// structs (callers may mutate their copies). Their Image fields share
// the catalogue's backing arrays, which nobody mutates.
func Functions() []*workload.Function {
	catalogueOnce.Do(func() { catalogue = buildCatalogue() })
	fs := make([]workload.Function, len(catalogue))
	copy(fs, catalogue)
	out := make([]*workload.Function, len(fs))
	for i := range fs {
		out[i] = &fs[i]
	}
	return out
}

func buildCatalogue() []workload.Function {
	mk := func(id int, name, desc, lang string, pkgs []image.Package,
		create, clean, fnInit, exec time.Duration, memMB float64) workload.Function {
		return workload.Function{
			ID: id, Name: name, Description: desc,
			Image:        image.NewImage(name, pkgs...),
			Create:       create,
			Clean:        clean,
			RuntimeInit:  runtimeInitByLang[lang],
			FunctionInit: fnInit,
			Exec:         exec,
			MemoryMB:     memMB,
		}
	}
	const (
		create = 300 * time.Millisecond // sandbox create + launch
		clean  = 60 * time.Millisecond  // volume unmount + mount
	)
	return []workload.Function{
		mk(1, "hello-java", "Hello", "java",
			concat(alpinePkgs(), javaPkgs(), springbootPkgs()),
			create, clean, 400*time.Millisecond, 60*time.Millisecond, 384),
		mk(2, "hello-node", "Hello", "nodejs",
			concat(alpinePkgs(), nodePkgs(), expressPkgs()),
			create, clean, 60*time.Millisecond, 50*time.Millisecond, 160),
		mk(3, "hello-go", "Hello", "go",
			concat(alpinePkgs(), goPkgs(), ginPkgs()),
			create, clean, 20*time.Millisecond, 40*time.Millisecond, 176),
		mk(4, "hello-python-alpine", "Hello", "python",
			concat(alpinePkgs(), pythonPkgs(), flaskPkgs()),
			create, clean, 50*time.Millisecond, 55*time.Millisecond, 136),
		mk(5, "hello-python-debian", "Hello", "python",
			concat(debianPkgs(), pythonPkgs(), flaskPkgs()),
			create, clean, 50*time.Millisecond, 55*time.Millisecond, 176),
		mk(6, "analytics-numpy", "Data analytics", "python",
			concat(debianPkgs(), pythonPkgs(), flaskPkgs(), numpyPkgs()),
			create, clean, 140*time.Millisecond, 350*time.Millisecond, 232),
		mk(7, "analytics-pandas", "Data analytics", "python",
			concat(debianPkgs(), pythonPkgs(), flaskPkgs(), numpyPkgs(), pandasPkgs()),
			create, clean, 300*time.Millisecond, 600*time.Millisecond, 296),
		mk(8, "analytics-matplotlib", "Data analytics", "python",
			concat(debianPkgs(), pythonPkgs(), flaskPkgs(), numpyPkgs(), pandasPkgs(), matplotlibPkgs()),
			create, clean, 380*time.Millisecond, 900*time.Millisecond, 352),
		mk(9, "object-storage-cpp", "Communication", "cpp",
			concat(centosPkgs(), cppPkgs()),
			create, clean, 40*time.Millisecond, 400*time.Millisecond, 208),
		mk(10, "alu-python", "Simple arithmetic", "python",
			concat(debianPkgs(), pythonPkgs(), flaskPkgs()),
			create, clean, 30*time.Millisecond, 250*time.Millisecond, 168),
		mk(11, "web-service-node", "Web service", "nodejs",
			concat(alpinePkgs(), nodePkgs(), expressPkgs()),
			create, clean, 80*time.Millisecond, 120*time.Millisecond, 176),
		mk(12, "image-processing-java", "Image processing", "java",
			concat(alpinePkgs(), javaPkgs(), springbootPkgs()),
			create, clean, 500*time.Millisecond, 600*time.Millisecond, 424),
		mk(13, "ml-inference-tf", "Machine learning", "python",
			concat(debianPkgs(), pythonPkgs(), flaskPkgs(), tensorflowPkgs()),
			create, clean, 1800*time.Millisecond, 1200*time.Millisecond, 1100),
	}
}

// ByID returns the function with the given Table II ID (1..13).
func ByID(fns []*workload.Function, id int) *workload.Function {
	for _, f := range fns {
		if f.ID == id {
			return f
		}
	}
	panic(fmt.Sprintf("fstartbench: no function with ID %d", id))
}

// Pick returns the functions with the given IDs, in the given order.
func Pick(fns []*workload.Function, ids ...int) []*workload.Function {
	out := make([]*workload.Function, len(ids))
	for i, id := range ids {
		out[i] = ByID(fns, id)
	}
	return out
}
