//! `graphmine graph` — offline tools for the binary graph store.
//!
//! `pack` turns a workload (synthetic, or parsed from a text edge list)
//! into a `.gmg` store file; `inspect` prints a file's header, metadata,
//! and section table without loading any payload; `verify` runs the full
//! checksum pass plus a CSR structural validation. Together with the
//! service's `/graphs` ingest API these are the offline half of the store:
//! pack on one machine, drop the file into a `--graph-dir`, and every
//! server sharing that directory can run jobs against it by name.

use graphmine_algos::Workload;
use graphmine_engine::IoShim;
use graphmine_graph::{parse_edge_list, Representation};
use graphmine_store::{
    infer_vertex_count, pack_workload, scrub_catalog, Catalog, ElemType, ScrubOutcome, StoredGraph,
};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> String {
    "usage: graphmine graph pack --out FILE.gmg [--seed N]\n\
     \x20        [--representation plain|compressed]\n\
     \x20        (--input EDGELIST [--directed] [--num-vertices N]\n\
     \x20         | --class powerlaw|ratings|matrix|grid|mrf --size N [--alpha A])\n\
     \x20      graphmine graph inspect FILE.gmg\n\
     \x20      graphmine graph verify FILE.gmg\n\
     \x20      graphmine graph scrub DIR"
        .to_string()
}

struct PackArgs {
    out: PathBuf,
    input: Option<PathBuf>,
    directed: bool,
    num_vertices: usize,
    class: String,
    size: usize,
    alpha: f64,
    seed: u64,
    representation: Representation,
}

fn parse_pack(mut args: impl Iterator<Item = String>) -> Result<PackArgs, String> {
    let mut out: Option<PathBuf> = None;
    let mut parsed = PackArgs {
        out: PathBuf::new(),
        input: None,
        directed: false,
        num_vertices: 0,
        class: "powerlaw".to_string(),
        size: 10_000,
        alpha: 2.5,
        seed: 0,
        representation: Representation::Plain,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--input" => parsed.input = Some(PathBuf::from(value("--input")?)),
            "--directed" => parsed.directed = true,
            "--num-vertices" => {
                parsed.num_vertices = value("--num-vertices")?
                    .parse()
                    .map_err(|_| "unparseable --num-vertices")?;
            }
            "--class" => {
                parsed.class = value("--class")?;
                if !["powerlaw", "ratings", "matrix", "grid", "mrf"]
                    .contains(&parsed.class.as_str())
                {
                    return Err(format!(
                        "unknown class `{}` (powerlaw|ratings|matrix|grid|mrf)",
                        parsed.class
                    ));
                }
            }
            "--size" => {
                parsed.size = value("--size")?.parse().map_err(|_| "unparseable --size")?;
                if parsed.size == 0 {
                    return Err("--size must be at least 1".to_string());
                }
            }
            "--alpha" => {
                parsed.alpha = value("--alpha")?
                    .parse()
                    .map_err(|_| "unparseable --alpha")?;
            }
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|_| "unparseable --seed")?;
            }
            "--representation" => {
                parsed.representation = value("--representation")?.parse::<Representation>()?;
            }
            other => return Err(format!("unknown pack flag `{other}`")),
        }
    }
    parsed.out = out.ok_or("pack requires --out FILE.gmg")?;
    Ok(parsed)
}

/// Build the workload `pack` will store, plus its provenance string.
fn build_workload(args: &PackArgs) -> Result<(Workload, String), String> {
    if let Some(input) = &args.input {
        let num_vertices = if args.num_vertices == 0 {
            infer_vertex_count(input).map_err(|e| format!("{}: {e}", input.display()))?
        } else {
            args.num_vertices
        };
        let file =
            File::open(input).map_err(|e| format!("cannot open {}: {e}", input.display()))?;
        let (graph, weights) = parse_edge_list(BufReader::new(file), num_vertices, args.directed)
            .map_err(|e| format!("{}: {e}", input.display()))?;
        let workload = Workload::weighted(graph, weights, args.seed);
        return Ok((workload, format!("edgelist:{}", input.display())));
    }
    let workload = match args.class.as_str() {
        "powerlaw" => Workload::powerlaw(args.size, args.alpha, args.seed),
        "ratings" => Workload::ratings(args.size, args.alpha, args.seed),
        "matrix" => Workload::matrix(args.size, args.seed),
        "grid" => Workload::grid(args.size, args.seed),
        "mrf" => Workload::mrf(args.size, args.seed),
        other => return Err(format!("unknown class `{other}`")),
    };
    Ok((workload, format!("synthetic:{}", args.class)))
}

fn pack(args: impl Iterator<Item = String>) -> Result<String, String> {
    let args = parse_pack(args)?;
    let built = Instant::now();
    let (workload, source) = build_workload(&args)?;
    let workload = if args.representation == Representation::Compressed {
        workload
            .with_representation(Representation::Compressed)
            .map_err(|e| format!("cannot compress workload: {e}"))?
    } else {
        workload
    };
    let build_ms = built.elapsed().as_secs_f64() * 1e3;
    let packed = Instant::now();
    let fingerprint = pack_workload(&args.out, &workload, &source, args.seed)
        .map_err(|e| format!("pack failed: {e}"))?;
    let pack_ms = packed.elapsed().as_secs_f64() * 1e3;
    let graph = workload.graph();
    let bytes = std::fs::metadata(&args.out).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "packed {source} ({} vertices, {} edges) -> {} [{bytes} bytes]\n\
         fingerprint {fingerprint:#018x}; build {build_ms:.1} ms, pack {pack_ms:.1} ms",
        graph.num_vertices(),
        graph.num_edges(),
        args.out.display(),
    ))
}

fn elem_name(elem: ElemType) -> &'static str {
    match elem {
        ElemType::Bytes => "bytes",
        ElemType::U32 => "u32",
        ElemType::U64 => "u64",
        ElemType::F64 => "f64",
        ElemType::PairU32 => "pair<u32>",
    }
}

fn inspect(path: &Path) -> Result<String, String> {
    let opened = Instant::now();
    let stored = StoredGraph::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let open_ms = opened.elapsed().as_secs_f64() * 1e3;
    let header = stored.header();
    let meta = stored.meta();
    let mut out = String::new();
    out.push_str(&format!(
        "{}: graphmine store v{} ({}, open {:.2} ms)\n",
        path.display(),
        header.version,
        if stored.is_mmap() { "mmap" } else { "read" },
        open_ms,
    ));
    out.push_str(&format!(
        "  class {} ({}), {} vertices, {} edges, flags {:#06x}\n",
        meta.class, header.workload_class, header.num_vertices, header.num_edges, header.flags,
    ));
    out.push_str(&format!(
        "  source `{}`, seed {}, fingerprint {:#018x}, {} bytes\n",
        meta.source,
        meta.seed,
        stored.fingerprint(),
        stored.file_len(),
    ));
    out.push_str(&format!("  sections ({}):\n", stored.sections().len()));
    for s in stored.sections() {
        out.push_str(&format!(
            "    {:<14} {:>9} @{:>8} {:>12} bytes  xxh64 {:#018x}\n",
            s.name,
            elem_name(s.elem),
            s.offset,
            s.len_bytes,
            s.checksum,
        ));
    }
    Ok(out.trim_end().to_string())
}

fn verify(path: &Path) -> Result<String, String> {
    let started = Instant::now();
    let stored = StoredGraph::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    stored
        .verify()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let graph = stored
        .load_graph()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    graph
        .validate()
        .map_err(|e| format!("{}: invalid CSR: {e}", path.display()))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(format!(
        "ok: {} sections verified, CSR valid ({} vertices, {} edges) in {ms:.1} ms",
        stored.sections().len(),
        graph.num_vertices(),
        graph.num_edges(),
    ))
}

/// Self-healing sweep over a whole catalog directory: verify every
/// `.gmg` file, quarantine corrupt ones as `*.corrupt`, re-pack the
/// quarantined graphs whose edge-list source file is still present, and
/// collect orphaned temp siblings.
fn scrub(dir: &Path) -> Result<String, String> {
    let started = Instant::now();
    let catalog = Catalog::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let report = scrub_catalog(&catalog, &IoShim::disabled())
        .map_err(|e| format!("scrub of {} failed: {e}", dir.display()))?;
    let mut out = String::new();
    for (name, outcome) in &report.entries {
        match outcome {
            ScrubOutcome::Clean => out.push_str(&format!("  {name}: clean\n")),
            ScrubOutcome::Repacked { detail } => {
                out.push_str(&format!("  {name}: repacked ({detail})\n"));
            }
            ScrubOutcome::Quarantined { detail } => {
                out.push_str(&format!("  {name}: quarantined ({detail})\n"));
            }
        }
    }
    let ms = started.elapsed().as_secs_f64() * 1e3;
    out.push_str(&format!(
        "scrubbed {} graphs in {ms:.1} ms: {} clean, {} repacked, {} quarantined; \
         {} orphan temp files removed",
        report.scanned(),
        report.clean(),
        report.repacked(),
        report.quarantined(),
        report.orphans_removed,
    ));
    Ok(out)
}

/// Entry point for `graphmine graph <subcommand> <flags>`.
pub fn main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(sub) = args.next() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match sub.as_str() {
        "pack" => pack(args),
        "inspect" | "verify" => {
            let file = args.next();
            let extra = args.next();
            match (file, extra) {
                (Some(file), None) => {
                    let path = PathBuf::from(file);
                    if sub == "inspect" {
                        inspect(&path)
                    } else {
                        verify(&path)
                    }
                }
                _ => Err(format!("graph {sub} takes exactly one FILE argument")),
            }
        }
        "scrub" => match (args.next(), args.next()) {
            (Some(dir), None) => scrub(&PathBuf::from(dir)),
            _ => Err("graph scrub takes exactly one DIR argument".to_string()),
        },
        other => Err(format!("unknown graph subcommand `{other}`")),
    };
    match result {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphmine-graphcli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn run_pack(flags: &[&str]) -> Result<String, String> {
        pack(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn pack_inspect_verify_synthetic() {
        let dir = temp_dir("synth");
        let out = dir.join("pl.gmg");
        let msg = run_pack(&[
            "--out",
            out.to_str().unwrap(),
            "--class",
            "powerlaw",
            "--size",
            "500",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(msg.contains("fingerprint"), "{msg}");
        let info = inspect(&out).unwrap();
        assert!(info.contains("class powerlaw"), "{info}");
        assert!(info.contains("out_neighbors"), "{info}");
        let ok = verify(&out).unwrap();
        assert!(ok.starts_with("ok:"), "{ok}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_compressed_verifies_and_is_smaller() {
        let dir = temp_dir("compressed");
        let plain = dir.join("plain.gmg");
        let packed = dir.join("packed.gmg");
        for (out, repr) in [(&plain, "plain"), (&packed, "compressed")] {
            run_pack(&[
                "--out",
                out.to_str().unwrap(),
                "--class",
                "powerlaw",
                "--size",
                "2000",
                "--seed",
                "3",
                "--representation",
                repr,
            ])
            .unwrap();
        }
        let ok = verify(&packed).unwrap();
        assert!(ok.starts_with("ok:"), "{ok}");
        let info = inspect(&packed).unwrap();
        assert!(info.contains("out_nbr_data"), "{info}");
        let plain_len = fs::metadata(&plain).unwrap().len();
        let packed_len = fs::metadata(&packed).unwrap().len();
        assert!(
            packed_len < plain_len,
            "compressed file {packed_len} not smaller than plain {plain_len}"
        );
        assert!(run_pack(&["--out", "x.gmg", "--representation", "bogus"]).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_from_edge_list_infers_vertices() {
        let dir = temp_dir("edges");
        let input = dir.join("g.txt");
        fs::write(&input, "# comment\n0 1\n1 2 0.5\n2 3\n").unwrap();
        let out = dir.join("g.gmg");
        run_pack(&[
            "--out",
            out.to_str().unwrap(),
            "--input",
            input.to_str().unwrap(),
        ])
        .unwrap();
        let stored = StoredGraph::open(&out).unwrap();
        assert_eq!(stored.header().num_vertices, 4);
        assert_eq!(stored.header().num_edges, 3);
        assert_eq!(stored.meta().class, "powerlaw");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_flags_are_validated() {
        assert!(run_pack(&[]).is_err());
        assert!(run_pack(&["--out", "x.gmg", "--class", "bogus"]).is_err());
        assert!(run_pack(&["--out", "x.gmg", "--size", "0"]).is_err());
        assert!(run_pack(&["--bogus"]).is_err());
    }

    #[test]
    fn scrub_quarantines_a_bit_flipped_pack() {
        let dir = temp_dir("scrub");
        let out = dir.join("pl.gmg");
        run_pack(&[
            "--out",
            out.to_str().unwrap(),
            "--class",
            "powerlaw",
            "--size",
            "400",
            "--seed",
            "7",
        ])
        .unwrap();
        let msg = scrub(&dir).unwrap();
        assert!(msg.contains("1 clean"), "{msg}");
        // One flipped payload bit must be detected and quarantined.
        let mut bytes = fs::read(&out).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        fs::write(&out, &bytes).unwrap();
        let msg = scrub(&dir).unwrap();
        assert!(msg.contains("1 quarantined"), "{msg}");
        assert!(!out.exists(), "corrupt file should have been renamed away");
        assert!(dir.join("pl.gmg.corrupt").exists());
        // The next sweep sees an empty (healthy) catalog.
        let msg = scrub(&dir).unwrap();
        assert!(msg.contains("scrubbed 0 graphs"), "{msg}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_rejects_garbage() {
        let dir = temp_dir("garbage");
        let path = dir.join("junk.gmg");
        fs::write(&path, b"not a store at all").unwrap();
        assert!(inspect(&path).is_err());
        assert!(verify(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
