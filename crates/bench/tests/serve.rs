//! The serve protocol's input surface: no line can panic the reader or be
//! silently misread, and a hostile line never takes the real
//! `stellar_serve` process down.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use proptest::prelude::*;
use stellar_bench::cache::{parse_serve_line, serve_line_id, ServeCommand, ServeRequest};
use stellar_bench::durable;
use stellar_sim::metrics::escape;

/// Bytes that steer the reader into its branches, drawn four times as
/// often as arbitrary ones.
const STRUCTURAL: &[u8] = b"{}[]\",:\\u0123456789abcdefABCDEF-+.eE \t\rtrufalsn";

fn line_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            4 => proptest::sample::select(STRUCTURAL.to_vec()),
            1 => 0u8..=255,
        ],
        0..120,
    )
}

/// Strings that need every escape the renderers emit: quotes,
/// backslashes, control characters, non-ASCII and astral scalars.
fn text() -> impl Strategy<Value = String> {
    let palette = "au0 \"\\/\n\t\u{1}\u{7f}é\u{2028}\u{1f600}{}[]:,"
        .chars()
        .collect();
    proptest::collection::vec(proptest::sample::select(palette), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Renders `req` as one protocol line, its members (and one nested
/// unknown member the reader must skip) rotated by `order`.
fn render_request(req: &ServeRequest, order: usize) -> String {
    let bounds: Vec<String> = req.bounds.iter().map(usize::to_string).collect();
    let mut members = vec![
        format!("\"spec\":\"{}\"", escape(&req.spec)),
        format!("\"bounds\":[{}]", bounds.join(", ")),
        format!("\"max_coeff\":{}", req.max_coeff),
        format!("\"max_pes\": {}", req.max_pes),
        format!("\"keep\":{}", req.keep),
        "\"meta\":{\"cmd\":\"shutdown\",\"id\":[\"x\",{\"keep\":-1}],\"n\":-1.5e3}".to_string(),
    ];
    if let Some(id) = &req.id {
        members.push(format!("\"id\" : \"{}\"", escape(id)));
    }
    let n = members.len();
    members.rotate_left(order % n);
    if order / n % 2 == 1 {
        members.reverse();
    }
    format!(" {{{}}} ", members.join(" , "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_lines_never_panic(bytes in line_bytes()) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_serve_line(&line);
        let _ = serve_line_id(&line);
        // The same bytes as the tail of an otherwise well-formed line.
        let tail = format!("{{\"id\":\"k\",\"x\":{line}");
        let _ = parse_serve_line(&tail);
        prop_assert_eq!(serve_line_id(&tail), Some("k".to_string()));
    }

    #[test]
    fn rendered_requests_parse_back_in_any_member_order(
        id in (proptest::bool::ANY, text()),
        spec in text(),
        bounds in proptest::collection::vec(1usize..=50, 1..=4),
        max_coeff in 1i64..=5,
        max_pes in 0usize..=100_000,
        keep in 0usize..=100,
        order in 0usize..64,
    ) {
        let req = ServeRequest {
            id: id.0.then_some(id.1),
            spec,
            bounds,
            max_coeff,
            max_pes,
            keep,
        };
        let line = render_request(&req, order);
        prop_assert_eq!(parse_serve_line(&line), Ok(ServeCommand::Query(req)), "{}", line);
    }
}

#[test]
fn hostile_lines_get_error_or_query_answers_and_the_service_stays_up() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stellar_serve"))
        .arg("--memory-only")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stellar_serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut ask = |line: &[u8]| -> String {
        stdin.write_all(line).unwrap();
        stdin.write_all(b"\n").unwrap();
        stdin.flush().unwrap();
        let mut response = String::new();
        stdout.read_line(&mut response).unwrap();
        durable::unseal(response.trim_end())
            .unwrap_or_else(|e| panic!("unsealed response {response:?}: {e}"))
            .to_string()
    };

    // A nested "cmd" is not a command: the line is a query.
    let nested = ask(br#"{"id":"n1","spec":"matmul","bounds":[3,3,3],"meta":{"cmd":"shutdown"}}"#);
    assert!(
        nested.contains("\"id\":\"n1\",\"cached\":false"),
        "{nested}"
    );
    // A non-UTF-8 line is an error response (its id still echoed), not EOF.
    let binary = ask(b"{\"id\":\"b2\",\"spec\":\"mat\xff\xfemul\",\"bounds\":[3,3,3]}");
    assert!(
        binary.contains("\"id\":\"b2\",\"error\":") && binary.contains("UTF-8"),
        "{binary}"
    );
    // A coefficient bound whose list alone would be 16 TB is the search's
    // own error, sealed like any other, not an allocation abort.
    let huge = ask(br#"{"id":"h3","spec":"matmul","bounds":[2,2,2],"max_coeff":1000000000000}"#);
    assert!(
        huge.contains("\"id\":\"h3\",\"error\":") && huge.contains("2000000000001^9"),
        "{huge}"
    );
    // A point count that overflows, or that is past the elaborator's
    // budget, is a budget error before anything is allocated; an extent
    // above i64::MAX is out of range, not a wrapped empty space.
    for (id, bounds) in [
        ("x5", "[100000000,100000000,100000000]"),
        ("x6", "[3000,3000,3000]"),
        ("x7", "[18446744073709551615,2,2]"),
        ("x8", "[9223372036854775808,2,2]"),
    ] {
        let line = format!(r#"{{"id":"{id}","spec":"matmul","bounds":{bounds}}}"#);
        let answer = ask(line.as_bytes());
        assert!(
            answer.contains(&format!("\"id\":\"{id}\",\"error\":")),
            "{line}: {answer}"
        );
    }
    // The process is still there and still holds what the first line cached.
    let normal = ask(br#"{"id":"q4","spec":"matmul","bounds":[3,3,3]}"#);
    assert!(normal.contains("\"id\":\"q4\",\"cached\":true"), "{normal}");
    assert!(
        child.try_wait().expect("poll the child").is_none(),
        "stellar_serve exited"
    );

    drop(stdin); // EOF closes the session
    assert!(child.wait().expect("reap the child").success());
}
