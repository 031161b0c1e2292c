//! Wire-negotiation loopback tests: the binary columnar path must be
//! bit-identical to JSON on the same batch, and every Content-Type/Accept combination must interoperate.

mod common;

use cc_server::wire::{self, CONTENT_TYPE_COLUMNAR};
use cc_server::HttpClient;
use conformance::CompiledProfile;
use serde_json::Value;

/// Pulls `"violations"` out of a JSON `/v1/check` reply as raw f64s.
fn json_violations(resp: &cc_server::ClientResponse) -> Vec<f64> {
    let v = resp.json().unwrap();
    let Some(Value::Array(items)) = cc_server::json::get(&v, "violations") else {
        panic!("response lacks violations: {v:?}");
    };
    items.iter().map(|x| cc_server::json::as_f64(x).expect("numeric violation")).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn columnar_check_bit_identical_to_json() {
    let dir = common::temp_dir("wirebitid");
    let profile = common::regime_profile(900, 0.0);
    common::write_profile(&dir, "main", &profile);
    let handle = common::start_server(&dir, 2);
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let plan = CompiledProfile::compile(&profile);

    // Batches straddling the evaluation block size plus the empty batch.
    for n in [0, 1, 511, 513, 700] {
        let serve = common::regime_frame(n, 3.0);
        let lib = bits(&plan.violations(&serve).unwrap());
        let frame_bytes = wire::encode_frame(&serve);

        // JSON request → JSON reply (the baseline).
        let resp = client.post_json("/v1/check", &common::columns_body(&serve)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(bits(&json_violations(&resp)), lib, "json/json n={n}");

        // Columnar request → columnar reply (the fast path end to end).
        let resp = client.post_columnar("/v1/check", &serve).unwrap();
        assert_eq!(resp.status, 200);
        let ct = resp.headers.iter().find(|(k, _)| k == "content-type").map(|(_, v)| v.as_str());
        assert_eq!(ct, Some(CONTENT_TYPE_COLUMNAR), "binary reply mislabeled");
        assert_eq!(bits(&wire::decode_violations(&resp.body).unwrap()), lib, "col/col n={n}");

        // Columnar request → JSON reply (no Accept header).
        let resp = client
            .request_with(
                "POST",
                "/v1/check",
                &frame_bytes,
                &[("content-type", CONTENT_TYPE_COLUMNAR)],
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(bits(&json_violations(&resp)), lib, "col/json n={n}");

        // JSON request → columnar reply (Accept only).
        let body = serde_json::to_string(&common::columns_body(&serve)).unwrap();
        let resp = client
            .request_with(
                "POST",
                "/v1/check",
                body.as_bytes(),
                &[("accept", CONTENT_TYPE_COLUMNAR)],
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(bits(&wire::decode_violations(&resp.body).unwrap()), lib, "json/col n={n}");
    }

    // Columnar bodies carry no JSON fields, so handler knobs ride the
    // query string: an explicit profile + thread count still works …
    let serve = common::regime_frame(64, 3.0);
    let resp = client.post_columnar("/v1/check?profile=main&threads=2", &serve).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        bits(&wire::decode_violations(&resp.body).unwrap()),
        bits(&plan.violations(&serve).unwrap()),
    );
    // … and a bad knob is a clean 400, not a fallback.
    let resp = client.post_columnar("/v1/check?threads=lots", &serve).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());

    // Columnar ingest with monitor geometry via query params: windows
    // close and report, same as the JSON path.
    let resp = client
        .post_columnar(
            "/v1/ingest?monitor=m&profile=main&window=32&stride=32",
            &common::regime_frame(96, 3.0),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json().unwrap();
    let Some(Value::Array(windows)) = cc_server::json::get(&v, "windows") else {
        panic!("ingest reply lacks windows: {v:?}");
    };
    assert_eq!(windows.len(), 3, "96 rows over 32-row tumbling windows");

    // The wire metric saw both encodings.
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text();
    assert!(text.contains("cc_server_wire_requests_total{wire=\"columnar\"}"), "{text}");
    assert!(text.contains("cc_server_wire_requests_total{wire=\"json\"}"), "{text}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
