//! End-to-end tests of the `graph-sketch` binary: the cross-process
//! coordinator topology of §1.1 run as actual OS processes — `sketch` at
//! each site, `merge` at the coordinator, `decode` for the answer — must
//! give byte-identical output to a single process seeing the whole stream.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_graph-sketch")
}

/// Runs the binary with `args`, feeding `stdin`; returns
/// `(stdout, stderr, exit code)`.
fn run(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn graph-sketch");
    // A child that rejects its flags can exit before reading stdin; the
    // resulting broken pipe is fine, the test only cares about the output.
    match child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("write stdin: {e}"),
    }
    let out = child.wait_with_output().expect("wait for graph-sketch");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.code().unwrap_or(-1),
    )
}

/// A scratch directory cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "gs-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small dynamic stream with churn: a cycle plus chords, every third
/// chord deleted again.
fn demo_stream(n: usize) -> String {
    let mut lines = String::new();
    for v in 0..n {
        lines.push_str(&format!("+ {v} {}\n", (v + 1) % n));
    }
    for v in 0..n / 2 {
        lines.push_str(&format!("+ {v} {}\n", (v + n / 2) % n));
        if v % 3 == 0 {
            lines.push_str(&format!("- {v} {}\n", (v + n / 2) % n));
        }
    }
    lines
}

/// Splits a stream's lines round-robin across `ways` site files.
fn split_lines(stream: &str, ways: usize) -> Vec<String> {
    let mut parts = vec![String::new(); ways];
    for (i, line) in stream.lines().enumerate() {
        parts[i % ways].push_str(line);
        parts[i % ways].push('\n');
    }
    parts
}

#[test]
fn two_process_pipeline_matches_single_process() {
    let n = 12;
    let stream = demo_stream(n);
    let n_flag = n.to_string();
    for task_args in [
        vec!["connectivity", "--n", &n_flag],
        vec!["mincut", "--n", &n_flag, "--eps", "0.75"],
        vec!["mst", "--n", &n_flag],
    ] {
        let dir = Scratch::new(task_args[0]);
        let (a_file, b_file) = (dir.path("a.sketch"), dir.path("b.sketch"));
        let merged_file = dir.path("merged.sketch");
        let parts = split_lines(&stream, 2);
        for (part, file) in parts.iter().zip([&a_file, &b_file]) {
            let mut args = vec!["sketch"];
            args.extend(&task_args);
            args.extend(["--seed", "77", "--out", file]);
            let (_, err, code) = run(&args, part);
            assert_eq!(code, 0, "sketch failed: {err}");
        }
        let (_, err, code) = run(&["merge", &a_file, &b_file, "--out", &merged_file], "");
        assert_eq!(code, 0, "merge failed: {err}");
        let (decoded, _, code) = run(&["decode", &merged_file], "");
        assert_eq!(code, 0);
        let mut central_args = task_args.clone();
        central_args.extend(["--seed", "77"]);
        let (central, _, code) = run(&central_args, &stream);
        assert_eq!(code, 0);
        assert_eq!(
            decoded, central,
            "{}: cross-process answer differs from single-process",
            task_args[0]
        );
    }
}

#[test]
fn merged_sketch_file_is_byte_identical_to_central_sketch_file() {
    // Stronger than equal answers: the merged *sketch state* written by
    // the coordinator equals the single process's sketch file byte for
    // byte (linearity at the wire level).
    let n = 10;
    let stream = demo_stream(n);
    let dir = Scratch::new("bytes");
    let parts = split_lines(&stream, 3);
    let mut files = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let f = dir.path(&format!("site{i}.sketch"));
        let (_, err, code) = run(
            &[
                "sketch",
                "connectivity",
                "--n",
                "10",
                "--seed",
                "5",
                "--out",
                &f,
            ],
            part,
        );
        assert_eq!(code, 0, "sketch failed: {err}");
        files.push(f);
    }
    let merged_file = dir.path("merged.sketch");
    let mut args: Vec<&str> = vec!["merge"];
    args.extend(files.iter().map(String::as_str));
    args.extend(["--out", &merged_file]);
    let (_, err, code) = run(&args, "");
    assert_eq!(code, 0, "merge failed: {err}");
    let central_file = dir.path("central.sketch");
    let (_, _, code) = run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "10",
            "--seed",
            "5",
            "--out",
            &central_file,
        ],
        &stream,
    );
    assert_eq!(code, 0);
    assert_eq!(
        std::fs::read_to_string(&merged_file).unwrap(),
        std::fs::read_to_string(&central_file).unwrap()
    );
}

#[test]
fn chunked_and_sharded_ingest_answer_like_the_default() {
    let stream = demo_stream(14);
    let (want, _, code) = run(&["connectivity", "--n", "14", "--seed", "3"], &stream);
    assert_eq!(code, 0);
    for extra in [
        vec!["--chunk", "3"],
        vec!["--sites", "4"],
        vec!["--sites", "4", "--chunk", "2"],
    ] {
        let mut args = vec!["connectivity", "--n", "14", "--seed", "3"];
        args.extend(&extra);
        let (got, _, code) = run(&args, &stream);
        assert_eq!(code, 0);
        assert_eq!(got, want, "{extra:?} changed the answer");
    }
}

#[test]
fn merge_refuses_incompatible_sketch_files() {
    let stream = demo_stream(8);
    let dir = Scratch::new("refuse");
    let (a, b) = (dir.path("a.sketch"), dir.path("b.sketch"));
    run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "8",
            "--seed",
            "1",
            "--out",
            &a,
        ],
        &stream,
    );
    run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "8",
            "--seed",
            "2",
            "--out",
            &b,
        ],
        &stream,
    );
    let (_, err, code) = run(&["merge", &a, &b], "");
    assert_ne!(code, 0, "merging different seeds must fail");
    assert!(err.contains("specs differ"), "unhelpful error: {err}");
}

#[test]
fn decode_refuses_future_wire_format() {
    let stream = demo_stream(8);
    let dir = Scratch::new("format");
    let a = dir.path("a.sketch");
    run(
        &["sketch", "connectivity", "--n", "8", "--out", &a],
        &stream,
    );
    let bumped = std::fs::read_to_string(&a)
        .unwrap()
        .replacen("\"format\":1", "\"format\":2", 1);
    std::fs::write(&a, bumped).unwrap();
    let (_, err, code) = run(&["decode", &a], "");
    assert_ne!(code, 0);
    assert!(err.contains("wire format 2"), "unhelpful error: {err}");
}

#[test]
fn stats_flag_reports_throughput() {
    let stream = demo_stream(10);
    let (_, err, code) = run(
        &["connectivity", "--n", "10", "--stats", "--sites", "2"],
        &stream,
    );
    assert_eq!(code, 0);
    assert!(err.contains("updates/s"), "no throughput report: {err}");
    assert!(err.contains("2 shard(s)"), "no shard report: {err}");
}

#[test]
fn line_errors_keep_their_line_numbers() {
    let (_, err, code) = run(&["connectivity", "--n", "4"], "+ 0 1\n+ 9 1\n");
    assert_ne!(code, 0);
    assert!(err.contains("line 2"), "lost the line number: {err}");
}

#[test]
fn invalid_stream_lines_are_typed_errors_not_worker_panics() {
    // A self-loop or out-of-range endpoint must die as a line-numbered
    // error on the ingesting side — never reach a sketch assert inside an
    // engine shard worker (whose panic would surface as an unrelated
    // "worker hung up" abort).
    for (line, what) in [
        ("+ 3 3", "self-loop"),
        ("- 2 2", "self-loop"),
        ("+ 0 99", "out of range"),
        ("+ 17 1", "out of range"),
    ] {
        let stdin = format!("+ 0 1\n+ 1 2\n{line}\n");
        for extra in [&["connectivity", "--n", "4"][..], &["mst", "--n", "4"][..]] {
            let (out, err, code) = run(extra, &stdin);
            assert_eq!(code, 1, "{line} under {extra:?}: {err}");
            assert!(
                err.contains("line 3") && err.contains(what),
                "{line} under {extra:?}: {err}"
            );
            assert!(
                !err.contains("panicked"),
                "{line}: worker panic leaked: {err}"
            );
            assert!(out.is_empty(), "{line}: stdout not empty: {out}");
        }
    }
}

#[test]
fn degenerate_specs_are_refused_typed_not_panicking() {
    // k = 0, eps = 0, and max_weight = 0 all used to reach a constructor
    // assert (or an eps-saturated huge allocation) when the engine built
    // its shards; they must be named field errors now.
    let cases = [
        (
            r#"{"task":"KConnect","n":4,"eps":0.5,"k":0,"max_weight":1024,"seed":1}"#,
            "k = 0",
        ),
        (
            r#"{"task":"MinCut","n":4,"eps":0.0,"k":2,"max_weight":1024,"seed":1}"#,
            "eps = 0",
        ),
        (
            r#"{"task":"Mst","n":4,"eps":0.5,"k":2,"max_weight":0,"seed":1}"#,
            "max_weight = 0",
        ),
        (
            r#"{"task":"Subgraphs","n":4,"eps":0.5,"k":9,"max_weight":1024,"seed":1}"#,
            "k = 9",
        ),
    ];
    for (spec, what) in cases {
        let (_, err, code) = run(&["--spec", spec], "+ 0 1\n");
        assert_eq!(code, 2, "{spec}: expected a usage error, got {err}");
        assert!(
            err.contains("error: spec declares") && err.contains(what),
            "{spec}: {err}"
        );
        assert!(!err.contains("panicked"), "{spec}: panic leaked: {err}");
    }
}

#[test]
fn decode_threads_flag_changes_nothing_but_wall_clock() {
    let scratch = Scratch::new("threads");
    let stream = demo_stream(10);
    let sk = scratch.path("a.sketch");
    let (_, _, code) = run(
        &["sketch", "connectivity", "--n", "10", "--out", &sk],
        &stream,
    );
    assert_eq!(code, 0);
    let (seq_out, _, seq_code) = run(&["decode", &sk, "--threads", "1"], "");
    let (par_out, _, par_code) = run(&["decode", &sk, "--threads", "8"], "");
    let (default_out, _, default_code) = run(&["decode", &sk], "");
    assert_eq!((seq_code, par_code, default_code), (0, 0, 0));
    assert_eq!(seq_out, par_out, "decode output differs across --threads");
    assert_eq!(seq_out, default_out, "default --threads differs");
    // The in-process query path takes the flag too.
    let (q_out, _, q_code) = run(&["connectivity", "--n", "10", "--threads", "2"], &stream);
    assert_eq!(q_code, 0);
    assert_eq!(q_out, seq_out);
    // Degenerate values are refused.
    let (_, err, code) = run(&["decode", &sk, "--threads", "0"], "");
    assert_eq!(code, 2);
    assert!(err.contains("--threads"), "{err}");
    // sketch never decodes, so it refuses the flag instead of ignoring it.
    let (_, err, code) = run(
        &["sketch", "connectivity", "--n", "10", "--threads", "2"],
        &stream,
    );
    assert_eq!(code, 2);
    assert!(err.contains("--threads"), "{err}");
}

#[test]
fn binary_pipeline_matches_json_pipeline() {
    // The same three-site topology shipped through --format bin: site
    // sketches, coordinator merge, decode — the decoded answer must be
    // byte-identical to the JSON-format pipeline and to one process.
    let n = 12;
    let stream = demo_stream(n);
    let dir = Scratch::new("binpipe");
    let parts = split_lines(&stream, 3);
    let mut files = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let f = dir.path(&format!("site{i}.sketch2"));
        let (_, err, code) = run(
            &[
                "sketch",
                "connectivity",
                "--n",
                "12",
                "--seed",
                "9",
                "--format",
                "bin",
                "--out",
                &f,
            ],
            part,
        );
        assert_eq!(code, 0, "binary sketch failed: {err}");
        // The site file really is binary (v2 magic, not JSON).
        let bytes = std::fs::read(&f).unwrap();
        assert!(bytes.starts_with(b"AGMSKB2\n"), "not a v2 file");
        files.push(f);
    }
    let merged = dir.path("merged.sketch2");
    let mut args: Vec<&str> = vec!["merge"];
    args.extend(files.iter().map(String::as_str));
    args.extend(["--format", "bin", "--out", &merged]);
    let (_, err, code) = run(&args, "");
    assert_eq!(code, 0, "binary merge failed: {err}");
    let (decoded, _, code) = run(&["decode", &merged], "");
    assert_eq!(code, 0);
    let (central, _, code) = run(&["connectivity", "--n", "12", "--seed", "9"], &stream);
    assert_eq!(code, 0);
    assert_eq!(decoded, central, "binary pipeline answer differs");
}

#[test]
fn merge_mixes_json_and_binary_sites() {
    // Content sniffing: one site ships JSON, the other binary; the
    // coordinator folds them without being told which is which.
    let n = 10;
    let stream = demo_stream(n);
    let dir = Scratch::new("mixed");
    let parts = split_lines(&stream, 2);
    let (a, b) = (dir.path("a.json"), dir.path("b.bin"));
    run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "10",
            "--seed",
            "4",
            "--out",
            &a,
        ],
        &parts[0],
    );
    run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "10",
            "--seed",
            "4",
            "--format",
            "bin",
            "--out",
            &b,
        ],
        &parts[1],
    );
    let merged = dir.path("merged.json");
    let (_, err, code) = run(&["merge", &a, &b, "--out", &merged], "");
    assert_eq!(code, 0, "mixed-format merge failed: {err}");
    let (decoded, _, code) = run(&["decode", &merged], "");
    assert_eq!(code, 0);
    let (central, _, code) = run(&["connectivity", "--n", "10", "--seed", "4"], &stream);
    assert_eq!(code, 0);
    assert_eq!(decoded, central, "mixed-format answer differs");
}

#[test]
fn truncated_binary_file_fails_loudly() {
    let stream = demo_stream(8);
    let dir = Scratch::new("bintrunc");
    let f = dir.path("a.sketch2");
    run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "8",
            "--format",
            "bin",
            "--out",
            &f,
        ],
        &stream,
    );
    let bytes = std::fs::read(&f).unwrap();
    std::fs::write(&f, &bytes[..bytes.len() / 2]).unwrap();
    let (_, err, code) = run(&["decode", &f], "");
    assert_ne!(code, 0);
    // The checksum gate catches a mid-file cut (the declared sum is no
    // longer the trailing word); a cut inside the header reports
    // truncation. Either way the load fails loudly and typed.
    assert!(
        err.contains("checksum") || err.contains("truncated"),
        "unhelpful error: {err}"
    );
    std::fs::write(&f, &bytes[..10]).unwrap(); // magic + half the version
    let (_, err, code) = run(&["decode", &f], "");
    assert_ne!(code, 0);
    assert!(err.contains("truncated"), "unhelpful error: {err}");
}

#[test]
fn format_flag_is_refused_out_of_place() {
    // --format on a plain query or decode is a mistake; it
    // must be refused, not silently ignored (PR 2 flag discipline).
    let (_, err, code) = run(&["connectivity", "--n", "4", "--format", "bin"], "+ 0 1\n");
    assert_ne!(code, 0);
    assert!(err.contains("--format"), "unhelpful error: {err}");
    let (_, err, code) = run(&["decode", "whatever.sketch", "--format", "bin"], "");
    assert_ne!(code, 0);
    assert!(err.contains("--format"), "unhelpful error: {err}");
    // And a bad value is named.
    let (_, err, code) = run(
        &["sketch", "connectivity", "--n", "4", "--format", "xml"],
        "+ 0 1\n",
    );
    assert_ne!(code, 0);
    assert!(
        err.contains("json, bin, or delta"),
        "unhelpful error: {err}"
    );
}

#[test]
fn out_of_place_flags_are_refused_not_ignored() {
    // `--out` on a plain query used to exit 0 without creating the file.
    let (_, err, code) = run(
        &["connectivity", "--n", "4", "--out", "nowhere.json"],
        "+ 0 1\n",
    );
    assert_ne!(code, 0);
    assert!(err.contains("--out"), "unhelpful error: {err}");
    let (_, err, code) = run(&["connectivity", "--n", "4", "--every", "5"], "+ 0 1\n");
    assert_ne!(code, 0);
    assert!(err.contains("--every"), "unhelpful error: {err}");
    let (_, err, code) = run(&["sketch", "connectivity", "--n", "4", "--json"], "+ 0 1\n");
    assert_ne!(code, 0);
    assert!(err.contains("--json"), "unhelpful error: {err}");
}

#[test]
fn delta_sync_rounds_reconstruct_the_single_process_answer() {
    // The continuously-syncing topology: two workers each sketch their
    // round's updates and ship a *delta* record; the coordinator `sync`s
    // the deltas into a resident state file (bootstrapped from the first
    // delta). After every round the state decodes exactly like a single
    // process that saw every update so far.
    let n = 12;
    let stream = demo_stream(n);
    let n_flag = n.to_string();
    let dir = Scratch::new("sync");
    let state = dir.path("central.state");
    let workers = split_lines(&stream, 2);
    let rounds: Vec<Vec<String>> = workers
        .iter()
        .map(|w| split_lines(w, 2)) // 2 rounds per worker
        .collect();
    let mut seen = String::new();
    for round in 0..2 {
        let mut delta_files = Vec::new();
        for (w, worker_rounds) in rounds.iter().enumerate() {
            let part = &worker_rounds[round];
            seen.push_str(part);
            let file = dir.path(&format!("w{w}-r{round}.delta"));
            let (_, err, code) = run(
                &[
                    "sketch",
                    "connectivity",
                    "--n",
                    &n_flag,
                    "--seed",
                    "77",
                    "--format",
                    "delta",
                    "--out",
                    &file,
                ],
                part,
            );
            assert_eq!(code, 0, "worker sketch failed: {err}");
            let magic = std::fs::read(&file).expect("delta file");
            assert!(magic.starts_with(b"AGMSKD2\n"), "not a delta record");
            delta_files.push(file);
        }
        let mut args = vec!["sync", "--state", &state];
        args.extend(delta_files.iter().map(String::as_str));
        let (_, err, code) = run(&args, "");
        assert_eq!(code, 0, "sync failed: {err}");
        assert!(err.contains("synced 2 delta record(s)"), "summary: {err}");
        let (decoded, _, code) = run(&["decode", &state], "");
        assert_eq!(code, 0);
        let (central, _, code) = run(&["connectivity", "--n", &n_flag, "--seed", "77"], &seen);
        assert_eq!(code, 0);
        assert_eq!(
            decoded, central,
            "round {round}: synced state differs from single-process answer"
        );
    }
}

#[test]
fn sync_refuses_incompatible_and_corrupt_deltas() {
    let dir = Scratch::new("sync-refuse");
    let state = dir.path("central.state");
    let good = dir.path("good.delta");
    let bad_seed = dir.path("bad-seed.delta");
    let sketch = |seed: &str, out: &str| {
        let (_, err, code) = run(
            &[
                "sketch",
                "connectivity",
                "--n",
                "8",
                "--seed",
                seed,
                "--format",
                "delta",
                "--out",
                out,
            ],
            "+ 0 1\n+ 1 2\n",
        );
        assert_eq!(code, 0, "sketch failed: {err}");
    };
    sketch("7", &good);
    sketch("8", &bad_seed);
    let (_, err, code) = run(&["sync", "--state", &state, &good], "");
    assert_eq!(code, 0, "first sync failed: {err}");
    let before = std::fs::read(&state).expect("state file");
    // A delta sketched under another seed is refused whole...
    let (_, err, code) = run(&["sync", "--state", &state, &bad_seed], "");
    assert_ne!(code, 0);
    assert!(err.contains("specs differ"), "unhelpful error: {err}");
    // ...and a corrupted delta is refused by the checksum gate; in both
    // cases the state file is untouched.
    let mut corrupt = std::fs::read(&good).expect("delta bytes");
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let corrupt_path = dir.path("corrupt.delta");
    std::fs::write(&corrupt_path, &corrupt).expect("write corrupt delta");
    let (_, err, code) = run(&["sync", "--state", &state, &corrupt_path], "");
    assert_ne!(code, 0);
    assert!(err.contains("checksum"), "unhelpful error: {err}");
    assert_eq!(
        std::fs::read(&state).expect("state file"),
        before,
        "a refused sync must leave the state untouched"
    );
}

#[test]
fn delta_records_are_not_sketch_files_and_vice_versa() {
    let dir = Scratch::new("delta-misuse");
    let delta = dir.path("site.delta");
    let full = dir.path("site.sketch");
    for (format, out) in [("delta", &delta), ("bin", &full)] {
        let (_, err, code) = run(
            &[
                "sketch",
                "connectivity",
                "--n",
                "6",
                "--seed",
                "3",
                "--format",
                format,
                "--out",
                out,
            ],
            "+ 0 1\n",
        );
        assert_eq!(code, 0, "sketch failed: {err}");
    }
    // decode / merge refuse a delta record with a pointer to sync...
    let (_, err, code) = run(&["decode", &delta], "");
    assert_ne!(code, 0);
    assert!(err.contains("sync"), "unhelpful error: {err}");
    let (_, err, code) = run(&["merge", &delta, &full], "");
    assert_ne!(code, 0);
    assert!(err.contains("sync"), "unhelpful error: {err}");
    // ...sync refuses a full sketch file in delta position...
    let state = dir.path("state");
    let (_, err, code) = run(&["sync", "--state", &state, &full], "");
    assert_ne!(code, 0);
    assert!(err.contains("magic"), "unhelpful error: {err}");
    // ...and merge won't write deltas.
    let (_, err, code) = run(&["merge", &full, "--format", "delta"], "");
    assert_ne!(code, 0);
    assert!(err.contains("sync"), "unhelpful error: {err}");
}

#[test]
fn empty_round_delta_is_valid_and_a_no_op() {
    // A worker with nothing to report still ships a well-formed (empty)
    // delta, and syncing it changes nothing — the zero-update regression.
    let dir = Scratch::new("empty-delta");
    let state = dir.path("central.state");
    let first = dir.path("first.delta");
    let empty = dir.path("empty.delta");
    let (_, err, code) = run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "6",
            "--seed",
            "5",
            "--format",
            "delta",
            "--out",
            &first,
        ],
        "+ 0 1\n+ 1 2\n",
    );
    assert_eq!(code, 0, "sketch failed: {err}");
    let (_, err, code) = run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "6",
            "--seed",
            "5",
            "--format",
            "delta",
            "--out",
            &empty,
        ],
        "",
    );
    assert_eq!(code, 0, "empty-round sketch failed: {err}");
    let (_, err, code) = run(&["sync", "--state", &state, &first], "");
    assert_eq!(code, 0, "sync failed: {err}");
    let before = std::fs::read(&state).expect("state file");
    let (_, err, code) = run(&["sync", "--state", &state, &empty], "");
    assert_eq!(code, 0, "empty sync failed: {err}");
    assert!(err.contains("(0 touched cells)"), "summary: {err}");
    assert_eq!(
        std::fs::read(&state).expect("state file"),
        before,
        "an empty delta must be a bit-exact no-op"
    );
}

#[test]
fn sync_bootstrap_refuses_a_hostile_delta_spec_without_panicking() {
    // A checksum-valid delta whose spec header declares an unconstructible
    // sketch (n = 1) must be refused with a typed error at bootstrap —
    // never a panic/abort (exit 101) from the sketch constructors.
    use graph_sketches::wire::v2_checksum;
    let dir = Scratch::new("hostile-spec");
    let delta = dir.path("site.delta");
    let (_, err, code) = run(
        &[
            "sketch",
            "connectivity",
            "--n",
            "8",
            "--seed",
            "2",
            "--format",
            "delta",
            "--out",
            &delta,
        ],
        "+ 0 1\n",
    );
    assert_eq!(code, 0, "sketch failed: {err}");
    let mut bytes = std::fs::read(&delta).expect("delta bytes");
    let at = 12; // magic + version
    let spec_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let header = String::from_utf8(bytes[at + 4..at + 4 + spec_len].to_vec()).unwrap();
    let bad = header.replacen("\"n\":8", "\"n\":1", 1);
    assert_eq!(bad.len(), spec_len, "same-length edit");
    bytes[at + 4..at + 4 + spec_len].copy_from_slice(bad.as_bytes());
    let split = bytes.len() - 8;
    let sum = v2_checksum(&bytes[..split]);
    bytes[split..].copy_from_slice(&sum.to_le_bytes());
    let hostile = dir.path("hostile.delta");
    std::fs::write(&hostile, &bytes).expect("write hostile delta");
    let state = dir.path("fresh.state");
    let (_, err, code) = run(&["sync", "--state", &state, &hostile], "");
    assert_eq!(
        code, 1,
        "expected a clean typed failure, got exit {code}: {err}"
    );
    assert!(
        err.contains("spec refused") && err.contains("n = 1"),
        "unhelpful error: {err}"
    );
    assert!(
        !std::path::Path::new(&state).exists(),
        "no state file may appear from a refused bootstrap"
    );
}
