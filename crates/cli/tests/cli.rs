//! End-to-end tests of the `cfa` command-line tool.

use std::io::Write as _;
use std::process::Command;

fn cfa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cfa"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("cfa-cli-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn run_executes_scheme() {
    let file = write_temp("run.scm", "(+ 20 22)");
    let out = cfa().arg("run").arg(&file).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "42");
}

#[test]
fn analyze_reports_all_panel_analyses() {
    let file = write_temp("analyze.scm", "(define (id x) x) (id (id 1))");
    let out = cfa()
        .args(["analyze", "--all"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["k-CFA(k=1)", "m-CFA(m=1)", "poly-k-CFA(k=1)", "k-CFA(k=0)"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    assert!(text.contains("{1}"));
}

#[test]
fn analyze_accepts_explicit_depths() {
    let file = write_temp("depth.scm", "((lambda (x) x) 9)");
    let out = cfa()
        .args(["analyze", "--mcfa", "2"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("m-CFA(m=2)"));
}

#[test]
fn cps_prints_conversion() {
    let file = write_temp("cps.scm", "(if #t 1 2)");
    let out = cfa().arg("cps").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("%if"), "{text}");
}

#[test]
fn fj_analyzes_java() {
    let file = write_temp(
        "p.java",
        "class Main extends Object {
           Main() { super(); }
           Object main() { Object o; o = new Object(); return o; }
         }",
    );
    let out = cfa().args(["fj", "--k", "1"]).arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("result classes: {Object}"), "{text}");
}

#[test]
fn fj_run_executes_java() {
    let file = write_temp(
        "run.java",
        "class Main extends Object {
           Main() { super(); }
           Object main() { Main m; m = new Main(); return m; }
         }",
    );
    let out = cfa().arg("fj-run").arg(&file).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "Main");
}

#[test]
fn analyze_report_prints_flow_table() {
    let file = write_temp("report.scm", "(define (id x) x) (id 1)");
    let out = cfa()
        .args(["analyze", "--kcfa", "1", "--report"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("store ("), "{text}");
    assert!(text.contains("call targets"), "{text}");
}

const RACY_SCHEME: &str = "(let ((a (atom 0)))
   (let ((t (spawn (reset! a 1))))
     (deref a)))";

const JOINED_SCHEME: &str = "(let ((a (atom 0)))
   (let ((t (spawn (reset! a 1))))
     (begin (join t) (deref a))))";

#[test]
fn races_reports_unjoined_conflict() {
    let file = write_temp("racy.scm", RACY_SCHEME);
    let out = cfa()
        .args(["races", "--kcfa", "1"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 race"), "{text}");
    assert!(text.contains("read/write"), "{text}");
    assert!(text.contains("fix:"), "{text}");
}

#[test]
fn races_silent_on_joined_program() {
    let file = write_temp("joined.scm", JOINED_SCHEME);
    let out = cfa().arg("races").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 races"), "{text}");
    assert!(text.contains("no races found"), "{text}");
}

#[test]
fn races_json_is_stable_shape() {
    let file = write_temp("racy-json.scm", RACY_SCHEME);
    let out = cfa()
        .args(["races", "--mcfa", "1", "--json"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.trim();
    assert!(line.starts_with("{\"analysis\":\"m=1\""), "{line}");
    assert!(line.contains("\"races\":[{"), "{line}");
    assert!(line.contains("\"kind\":\"read/write\""), "{line}");
    assert!(line.ends_with("}"), "{line}");
}

#[test]
fn races_suppresses_partial_reports() {
    let file = write_temp("races-partial.scm", RACY_SCHEME);
    let out = cfa()
        .arg("races")
        .arg(&file)
        .env("CFA_MAX_ITERS", "1")
        .output()
        .unwrap();
    // A truncated fixpoint must not print a (misleadingly empty) report.
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(out.stdout.is_empty());
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = cfa().arg("bogus-subcommand").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn parse_errors_exit_nonzero() {
    let file = write_temp("bad.scm", "(((");
    let out = cfa().arg("run").arg(&file).output().unwrap();
    assert!(!out.status.success());
    assert!(!out.stderr.is_empty());
}

#[test]
fn missing_file_reports_error() {
    let out = cfa()
        .args(["run", "/nonexistent/nope.scm"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn dot_emits_graphviz() {
    let file = write_temp("dot.scm", "(define (f x) x) (f (f 1))");
    let out = cfa().arg("dot").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph callgraph {"), "{text}");
    assert!(text.contains("->"), "{text}");
}

const DISPATCH_JAVA: &str = "class A extends Object {
  A() { super(); }
  Object who() { Object oa; oa = new A(); return oa; }
}
class B extends A {
  B() { super(); }
  Object who() { Object ob; ob = new B(); return ob; }
}
class Main extends Object {
  Main() { super(); }
  Object main() {
    A x;
    x = new B();
    return x.who();
  }
}";

#[test]
fn fj_dot_emits_method_graph() {
    let file = write_temp("dot.java", DISPATCH_JAVA);
    let out = cfa()
        .args(["fj-dot", "--k", "1"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph fj_callgraph {"), "{text}");
    assert!(text.contains("B.who"), "{text}");
    assert!(text.contains("style=solid"), "{text}");
}

#[test]
fn fj_datalog_reports_agreement() {
    let file = write_temp("datalog.java", DISPATCH_JAVA);
    let out = cfa()
        .args(["fj-datalog", "--k", "1"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("machine agrees: yes"), "{text}");
    assert!(text.contains("result classes: {B}"), "{text}");
}

#[test]
fn fj_datalog_rejects_deep_contexts() {
    let file = write_temp("deep.java", DISPATCH_JAVA);
    let out = cfa()
        .args(["fj-datalog", "--k", "5"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn iteration_limit_exits_with_code_4() {
    let file = write_temp("iters.scm", "(define (id x) x) (id (id 1))");
    let out = cfa()
        .arg("analyze")
        .arg(&file)
        .env("CFA_MAX_ITERS", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("CFA_MAX_ITERS"), "{err}");
}

#[test]
fn time_budget_overrun_exits_with_code_3() {
    let file = write_temp("budget.scm", "(define (id x) x) (id (id 1))");
    let out = cfa()
        .arg("analyze")
        .arg(&file)
        .env("CFA_TIME_BUDGET_MS", "0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("timed out"), "{err}");
}

#[test]
fn injected_cancellation_exits_with_code_5() {
    // The flip lands on the first pop, and every worker checks its
    // limits on its first pop, so the run stops before evaluating.
    let file = write_temp("cancel.scm", &cfa_workloads::worst_case_source(7));
    let out = cfa()
        .arg("analyze")
        .arg(&file)
        .env("CFA_FAULT_PLAN", "cancel_pop=1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cancelled"), "{err}");
}

#[test]
fn injected_panic_exits_with_code_6_not_a_crash() {
    let file = write_temp("abort.scm", "(define (id x) x) (id (id 1))");
    let out = cfa()
        .arg("analyze")
        .arg(&file)
        .env("CFA_FAULT_PLAN", "panic_eval=3")
        .output()
        .unwrap();
    // 6, not the 101 of an uncaught panic: the abort was contained.
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("analysis aborted at"), "{err}");
    // The partial metrics still printed, naming the status.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Aborted"), "{text}");
}

#[test]
fn dot_suppresses_partial_graphs() {
    let file = write_temp("partial.scm", "(define (f x) x) (f (f 1))");
    let out = cfa()
        .arg("dot")
        .arg(&file)
        .env("CFA_MAX_ITERS", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(
        out.stdout.is_empty(),
        "an interrupted analysis must not emit a partial graph"
    );
}

#[test]
fn trace_writes_chrome_json_with_per_worker_lanes() {
    let file = write_temp("trace.scm", "(define (f x) x) (f (f (f 1)))");
    let out_path =
        std::env::temp_dir().join(format!("cfa-cli-test-{}-trace.json", std::process::id()));
    let out = cfa()
        .args(["trace", "--threads", "2", "--out"])
        .arg(&out_path)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 worker lanes"), "{text}");
    let json = std::fs::read_to_string(&out_path).unwrap();
    // Chrome trace_event shape: a traceEvents array with one
    // thread_name metadata record per worker lane and complete-span
    // eval slices carrying the config id.
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"thread_name\""), "{json}");
    for tid in [0, 1] {
        assert!(
            json.contains(&format!("\"tid\":{tid}")),
            "missing lane {tid}"
        );
    }
    assert!(json.contains("\"ph\":\"X\""), "no complete spans: {json}");
    assert!(
        json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"),
        "{json}"
    );
}

#[test]
fn trace_suppresses_partial_profiles() {
    let file = write_temp("trace-partial.scm", "(define (f x) x) (f (f 1))");
    let out_path = std::env::temp_dir().join(format!(
        "cfa-cli-test-{}-trace-partial.json",
        std::process::id()
    ));
    let out = cfa()
        .args(["trace", "--out"])
        .arg(&out_path)
        .arg(&file)
        .env("CFA_MAX_ITERS", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(
        !out_path.exists(),
        "an interrupted analysis must not write a profile"
    );
}

/// Runs `cfa serve` on `input` (stdin closed after it) and returns its
/// stdout, asserting a clean exit.
fn serve_output(input: &[u8]) -> String {
    use std::process::Stdio;
    let mut child = cfa()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(input).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// The header line of every reply in `serve` output, in order.
fn reply_headers(text: &str) -> Vec<&str> {
    let mut headers = Vec::new();
    let mut at_header = true;
    for line in text.lines() {
        if at_header {
            headers.push(line);
        }
        at_header = line == ".";
    }
    headers
}

#[test]
fn serve_answers_stats_with_pool_gauges() {
    let text = serve_output(b"callgraph k=1\n(define (id x) x) (id 42)\n.\nstats\n.\n");
    assert!(text.contains("ok 0 callgraph"), "{text}");
    assert!(text.contains("ok 1 stats"), "{text}");
    // One line of JSON gauges; the earlier callgraph request is
    // counted by the time the stats snapshot is taken (responses are
    // drained in request order).
    let stats_line = text
        .lines()
        .find(|l| l.starts_with("{\"threads\":"))
        .unwrap_or_else(|| panic!("no stats JSON in:\n{text}"));
    assert!(stats_line.contains("\"submitted\":1"), "{stats_line}");
    assert!(stats_line.contains("\"queued\":"), "{stats_line}");
    assert!(stats_line.ends_with('}'), "{stats_line}");
}

#[test]
fn serve_keeps_framing_after_invalid_utf8() {
    let text = serve_output(b"callgraph k=0\n(define (id x) x)\n\xff\n(id 42)\n.\nstats\n.\n");
    assert_eq!(
        reply_headers(&text),
        ["err 0 request is not UTF-8", "ok 1 stats"],
        "{text}"
    );
}

#[test]
fn serve_rejects_a_request_cut_off_by_eof() {
    let text = serve_output(b"stats\n.\ncallgraph k=0\n(define (id x) x) (id 42)\n");
    assert_eq!(
        reply_headers(&text),
        ["ok 0 stats", "err 1 request truncated at EOF"],
        "{text}"
    );
}

#[test]
fn serve_replies_stay_in_request_order() {
    let slow = cfa_workloads::worst_case_source(8);
    let input = format!(
        "callgraph k=1\n{slow}\n.\nstats\n.\nfrobnicate k=1\n(id 1)\n.\nraces k=0\n(+ 1 2)\n.\n"
    );
    let text = serve_output(input.as_bytes());
    let headers = reply_headers(&text);
    let ids: Vec<&str> = headers
        .iter()
        .map(|h| h.split_whitespace().nth(1).unwrap_or(""))
        .collect();
    assert_eq!(ids, ["0", "1", "2", "3"], "{text}");
    assert!(headers[0].starts_with("ok 0 callgraph k=1"), "{text}");
    assert_eq!(headers[1], "ok 1 stats", "{text}");
    assert!(headers[2].starts_with("err 2 unknown query"), "{text}");
    assert!(headers[3].starts_with("ok 3 races k=0"), "{text}");
    // The stats snapshot is taken at admission: the slow request is
    // submitted, the tiny one after it is not yet.
    let stats_line = text.lines().find(|l| l.starts_with("{\"threads\":"));
    assert!(
        stats_line.is_some_and(|l| l.contains("\"submitted\":1,")),
        "{text}"
    );
}

/// Reads the next `serve` reply (its lines up to the lone `.`) off
/// `lines`, killing the server and failing if none arrives in 20 s.
fn next_reply(
    lines: &std::sync::mpsc::Receiver<String>,
    child: &mut std::process::Child,
) -> Vec<String> {
    let mut reply = Vec::new();
    loop {
        match lines.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(line) if line == "." => return reply,
            Ok(line) => reply.push(line),
            Err(e) => {
                let _ = child.kill();
                panic!("no complete reply within 20 s ({e}); read {reply:?}");
            }
        }
    }
}

#[test]
fn serve_answers_before_the_next_request() {
    use std::io::BufRead as _;
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = cfa()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();
    let (send, lines) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            if send.send(line.unwrap()).is_err() {
                break;
            }
        }
    });
    // A closed-loop client: each request waits for its reply, with
    // stdin still open, before the next is sent.
    let slow = cfa_workloads::worst_case_source(8);
    write!(stdin, "callgraph k=1\n{slow}\n.\n").unwrap();
    stdin.flush().unwrap();
    let first = next_reply(&lines, &mut child);
    assert!(first[0].starts_with("ok 0 callgraph k=1"), "{first:?}");
    stdin.write_all(b"races k=0\n(+ 1 2)\n.\n").unwrap();
    stdin.flush().unwrap();
    let second = next_reply(&lines, &mut child);
    assert!(second[0].starts_with("ok 1 races k=0"), "{second:?}");
    drop(stdin);
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            panic!("cfa serve did not exit once stdin closed");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "{status:?}");
    reader.join().unwrap();
}

/// Asserts a malformed-knob exit: code 2 and one `cfa:` line naming
/// the variable, with no panic report.
fn assert_bad_knob_exit(out: &std::process::Output, var: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.starts_with(&format!("cfa: {var}=")), "{err}");
}

#[test]
fn malformed_knobs_exit_2_with_one_line() {
    let file = write_temp("knob.scm", "(define (id x) x) (id 42)");
    for (command, var, value) in [
        ("dump", "CFA_MAX_ITERS", "abc"),
        ("dump", "CFA_TIME_BUDGET_MS", "-1"),
        ("dump", "CFA_FAULT_PLAN", "boom"),
        ("races", "CFA_TRACE", "verbose"),
    ] {
        let out = cfa()
            .arg(command)
            .arg(&file)
            .env(var, value)
            .output()
            .unwrap();
        assert_bad_knob_exit(&out, var);
    }
    let out = cfa()
        .arg("dump")
        .arg(&file)
        .env("CFA_MAX_ITERS", "abc")
        .output()
        .unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "cfa: CFA_MAX_ITERS=\"abc\": invalid digit found in string"
    );
}

#[test]
fn serve_rejects_malformed_knobs_before_reading_stdin() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    for (var, value) in [("CFA_POOL_THREADS", "two"), ("CFA_MAX_ITERS", "abc")] {
        let mut child = cfa()
            .arg("serve")
            .env(var, value)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Stdin stays open and empty: a server that read it first would
        // block here instead of exiting.
        let stdin = child.stdin.take().unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                child.kill().unwrap();
                panic!("cfa serve with {var}={value:?} waited for stdin");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        assert_bad_knob_exit(&out, var);
        assert!(out.stdout.is_empty(), "{out:?}");
    }
}

#[test]
fn dump_is_engine_invariant_and_compare_agrees() {
    let file = write_temp("dump.scm", JOINED_SCHEME);
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let seq = tmp.join(format!("cfa-cli-test-{pid}-dump-seq.json"));
    let shard = tmp.join(format!("cfa-cli-test-{pid}-dump-shard.json"));
    for (backend, mode, out_path) in [
        ("sequential", "semi-naive", &seq),
        ("sharded", "full-reeval", &shard),
    ] {
        let out = cfa()
            .args(["dump", "--kcfa", "1", "--backend", backend, "--mode", mode])
            .args(["--threads", "3", "--out"])
            .arg(out_path)
            .arg(&file)
            .output()
            .unwrap();
        assert!(out.status.success(), "{backend}: {out:?}");
    }
    // Byte-identical normal forms regardless of which engine ran.
    assert_eq!(std::fs::read(&seq).unwrap(), std::fs::read(&shard).unwrap());
    let out = cfa().arg("compare").args([&seq, &shard]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "identical");
}

#[test]
fn compare_names_the_first_divergent_fact() {
    let file = write_temp("perturb.scm", "(define (id x) x) (id 42)");
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let a = tmp.join(format!("cfa-cli-test-{pid}-perturb-a.json"));
    let b = tmp.join(format!("cfa-cli-test-{pid}-perturb-b.json"));
    let out = cfa()
        .args(["dump", "--kcfa", "1", "--out"])
        .arg(&a)
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    // Artificially perturb one flow fact: the halt value 42 becomes 43.
    let perturbed = std::fs::read_to_string(&a).unwrap().replace("42", "43");
    std::fs::write(&b, perturbed).unwrap();
    let out = cfa()
        .args(["compare", "--limit", "2"])
        .args([&a, &b])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("42"), "diff must name the fact:\n{text}");
    assert!(text.contains("divergent fact"), "{text}");
}

#[test]
fn compare_rejects_malformed_snapshots_with_code_2() {
    let good_src = write_temp("wellformed.scm", "((lambda (x) x) 1)");
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let good = tmp.join(format!("cfa-cli-test-{pid}-good.json"));
    let out = cfa()
        .args(["dump", "--mcfa", "1", "--out"])
        .arg(&good)
        .arg(&good_src)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let bad = write_temp("mangled.json", "{\"schema\": oops");
    let out = cfa().arg("compare").arg(&good).arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("malformed"), "{err}");
}

#[test]
fn compare_rejects_deeply_nested_input_with_code_2() {
    // 200,000 open brackets: a reader that recursed once per bracket
    // overflowed the main thread's stack and aborted (exit 134).
    let deep = write_temp("deep.json", &"[".repeat(200_000));
    let out = cfa().arg("compare").arg(&deep).arg(&deep).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("malformed") && err.contains("nesting"),
        "{err}"
    );
}

#[test]
fn dump_refuses_partial_fixpoints() {
    let file = write_temp("dump-partial.scm", "(define (f x) x) (f (f 1))");
    let out_path = std::env::temp_dir().join(format!(
        "cfa-cli-test-{}-dump-partial.json",
        std::process::id()
    ));
    let out = cfa()
        .args(["dump", "--kcfa", "1", "--out"])
        .arg(&out_path)
        .arg(&file)
        .env("CFA_MAX_ITERS", "1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(
        !out_path.exists(),
        "a truncated run must not be dumped as a comparable snapshot"
    );
}

#[test]
fn compare_rejects_incomplete_snapshots_as_not_comparable() {
    let src = write_temp("complete.scm", "((lambda (x) x) 1)");
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let complete = tmp.join(format!("cfa-cli-test-{pid}-complete.json"));
    let out = cfa()
        .args(["dump", "--kcfa", "0", "--out"])
        .arg(&complete)
        .arg(&src)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    // Hand-forge a snapshot claiming a truncated run; `cfa dump` itself
    // refuses to produce one, but a stale or corrupted artifact could.
    let truncated = tmp.join(format!("cfa-cli-test-{pid}-truncated.json"));
    let forged = std::fs::read_to_string(&complete).unwrap().replace(
        "\"status\": \"complete\"",
        "\"status\": \"iteration-limit\"",
    );
    std::fs::write(&truncated, forged).unwrap();
    let out = cfa()
        .arg("compare")
        .args([&complete, &truncated])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not comparable"), "{err}");
}

#[test]
fn fj_gc_reports_precision_neutral_collection() {
    let file = write_temp("gc.java", DISPATCH_JAVA);
    let out = cfa()
        .args(["fj-gc", "--k", "1"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GC is precision-neutral: yes"), "{text}");
    assert!(text.contains("singular"), "{text}");
}
