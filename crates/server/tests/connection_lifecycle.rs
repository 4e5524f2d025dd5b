//! Connection lifecycle: fresh connections are picked up as soon as
//! they arrive, a lone request is dispatched without waiting for
//! company, `stop()` drains promptly on every listener kind, and line
//! framing does not depend on how a request is split into writes.

use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(endpoint: Endpoint) -> Server {
    let mut cfg = ServerConfig::new(endpoint);
    cfg.threads = 1;
    Server::start(cfg).expect("server starts")
}

/// A connection to `server`, whichever kind it listens on, as its
/// write and read halves.
fn connect(server: &Server) -> (Box<dyn Write>, Box<dyn Read>) {
    match server.bound() {
        BoundAddr::Tcp(a) => {
            let a = if a.ip().is_unspecified() {
                std::net::SocketAddr::from(([127, 0, 0, 1], a.port()))
            } else {
                *a
            };
            let s = TcpStream::connect(a).expect("connects");
            s.set_nodelay(true).expect("nodelay");
            (Box::new(s.try_clone().expect("clones")), Box::new(s))
        }
        #[cfg(unix)]
        BoundAddr::Unix(p) => {
            let s = std::os::unix::net::UnixStream::connect(p).expect("connects");
            (Box::new(s.try_clone().expect("clones")), Box::new(s))
        }
    }
}

/// Send `chunks` (flushing after each) and read one reply line.
fn exchange(server: &Server, chunks: &[&[u8]]) -> String {
    let (mut tx, rx) = connect(server);
    for c in chunks {
        tx.write_all(c).expect("writes");
        tx.flush().expect("flushes");
    }
    let mut line = String::new();
    BufReader::new(rx)
        .read_line(&mut line)
        .expect("reply arrives");
    line
}

#[cfg(unix)]
fn unix_endpoint(tag: &str) -> Endpoint {
    Endpoint::Unix(std::env::temp_dir().join(format!(
        "facile-lifecycle-{}-{tag}.sock",
        std::process::id()
    )))
}

/// Twenty sequential fresh connections, one `ping` each: with the
/// acceptor woken by the connection itself, none waits on a poll tick.
fn assert_fresh_connections_are_prompt(endpoint: Endpoint) {
    let server = start(endpoint);
    // The first connection also pays thread start-up; time the rest.
    let pong = exchange(&server, &[b"{\"op\":\"ping\"}\n"]);
    assert_eq!(pong.trim_end(), r#"{"ok":true,"pong":true}"#);
    let t = Instant::now();
    for i in 0..20 {
        let req = format!("{{\"op\":\"ping\",\"id\":{i}}}\n");
        let pong = exchange(&server, &[req.as_bytes()]);
        assert_eq!(
            pong.trim_end(),
            format!(r#"{{"id":{i},"ok":true,"pong":true}}"#)
        );
    }
    let took = t.elapsed();
    server.stop();
    assert!(
        took < Duration::from_millis(100),
        "20 fresh connections took {took:?}"
    );
}

#[test]
fn fresh_tcp_connections_are_accepted_at_once() {
    assert_fresh_connections_are_prompt(Endpoint::Tcp("127.0.0.1:0".into()));
}

#[cfg(unix)]
#[test]
fn fresh_unix_connections_are_accepted_at_once() {
    assert_fresh_connections_are_prompt(unix_endpoint("fresh"));
}

/// A lone client's warm single-block `predict` round trip costs about
/// what the engine and the socket cost: the batcher dispatches a job as
/// soon as it is queued rather than holding it for others to join.
/// Median of 200 closed-loop round trips after 20 warm-ups, under
/// 300 µs.
#[test]
fn lone_predict_round_trip_is_not_held_back() {
    let server = start(Endpoint::Tcp("127.0.0.1:0".into()));
    let (mut tx, rx) = connect(&server);
    let mut rx = BufReader::new(rx);
    let req = b"{\"op\":\"predict\",\"block\":\"4801c8480fafd0\"}\n";
    let mut line = String::new();
    let mut round_trip = || {
        let t = Instant::now();
        tx.write_all(req).expect("writes");
        line.clear();
        rx.read_line(&mut line).expect("reply arrives");
        let took = t.elapsed();
        assert!(line.starts_with(r#"{"ok":true,"rows":["#), "{line}");
        took
    };
    for _ in 0..20 {
        round_trip();
    }
    let mut times: Vec<Duration> = (0..200).map(|_| round_trip()).collect();
    server.stop();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_micros(300),
        "median warm round trip {median:?}"
    );
}

/// `stop()` returns within 2 s on every listener kind, whether or not
/// a client holds an idle connection open across it.
#[test]
fn stop_drains_promptly_on_every_listener() {
    let mut endpoints = vec![
        ("tcp 127.0.0.1", Endpoint::Tcp("127.0.0.1:0".into())),
        ("tcp 0.0.0.0", Endpoint::Tcp("0.0.0.0:0".into())),
    ];
    #[cfg(unix)]
    endpoints.push(("unix", unix_endpoint("stop")));
    for (name, endpoint) in endpoints {
        for idle_conn in [false, true] {
            let server = start(endpoint.clone());
            let idle = idle_conn.then(|| {
                let pong = exchange(&server, &[b"{\"op\":\"ping\"}\n"]);
                assert_eq!(pong.trim_end(), r#"{"ok":true,"pong":true}"#);
                connect(&server)
            });
            let t = Instant::now();
            server.stop();
            let took = t.elapsed();
            drop(idle);
            assert!(
                took < Duration::from_secs(2),
                "{name} (idle connection: {idle_conn}): stop() took {took:?}"
            );
        }
    }
}

/// A request line just under the line cap gets the same reply whether
/// it arrives in one write or in 16 KiB writes.
#[test]
fn line_near_the_cap_frames_the_same_in_small_writes() {
    let server = start(Endpoint::Tcp("127.0.0.1:0".into()));
    let cap = ServerConfig::new(Endpoint::Tcp(String::new())).max_line_bytes;
    let head = r#"{"op":"batch","blocks":["4801c8","90"],"id":""#;
    let tail = "\"}";
    // A long id with multi-byte characters: the server echoes it.
    let mut id = "idé€".repeat((cap - 64 - head.len() - tail.len()) / "idé€".len());
    id.push_str(&"x".repeat(cap - 64 - head.len() - tail.len() - id.len()));
    let line = format!("{head}{id}{tail}\n");
    assert_eq!(line.len(), cap - 64 + 1);

    let whole = exchange(&server, &[line.as_bytes()]);
    let chunks: Vec<&[u8]> = line.as_bytes().chunks(16 * 1024).collect();
    assert!(chunks.len() >= 60);
    let pieces = exchange(&server, &chunks);
    server.stop();
    assert!(whole.starts_with(r#"{"id":"idé€"#));
    assert!(whole.contains(r#""ok":true"#));
    assert_eq!(pieces, whole);
}
