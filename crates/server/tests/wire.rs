//! Wire-level latency regression tests against a real server on
//! `127.0.0.1:0`: each response must leave as one segment, so a strict
//! request/response loop never waits on the peer's delayed-ACK timer.
//! A response written as two segments with Nagle on costs ~40 ms per round
//! trip, which turns the 200 round trips below into ≥ 8 s.

use skipflow_server::{Client, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

const SRC: &str = "
    class App {
      static method used(): void { return; }
      static method main(): void { App.used(); return; }
    }
";

const ROUND_TRIPS: usize = 200;
const LIMIT: Duration = Duration::from_secs(2);

/// Starts a server with one flushed session `s` and returns its address
/// plus the accept loop's join handle.
fn start_server(tag: &str) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    let dir = std::env::temp_dir().join(format!("skipflow-wire-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("app.sf");
    std::fs::write(&src, SRC).unwrap();
    let mut client = Client::connect(&addr).expect("connect");
    let opened = client
        .request(&format!("open s {}", src.display()))
        .unwrap();
    assert!(opened.starts_with("ok opened s"), "{opened}");
    assert!(client
        .request("roots s App.main")
        .unwrap()
        .starts_with("ok queued 1"));
    assert_eq!(
        client.request("flush s").unwrap(),
        "ok flushed epoch=1 roots=1"
    );
    std::fs::remove_dir_all(&dir).ok();
    (addr, handle)
}

fn stop_server(addr: &SocketAddr, handle: thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    assert_eq!(client.request("shutdown").unwrap(), "ok bye");
    handle.join().expect("server thread");
}

#[test]
fn sequential_round_trips_on_a_raw_nodelay_socket_do_not_stall() {
    let (addr, handle) = start_server("raw");
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let start = Instant::now();
    for _ in 0..ROUND_TRIPS {
        writer.write_all(b"query s epoch\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok 1 epoch=1\n");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < LIMIT,
        "{ROUND_TRIPS} round trips took {elapsed:?}"
    );
    drop((writer, reader));
    stop_server(&addr, handle);
}

#[test]
fn sequential_round_trips_through_the_client_do_not_stall() {
    let (addr, handle) = start_server("client");
    let mut client = Client::connect(&addr).expect("connect");
    let start = Instant::now();
    for _ in 0..ROUND_TRIPS {
        assert_eq!(client.request("query s epoch").unwrap(), "ok 1 epoch=1");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < LIMIT,
        "{ROUND_TRIPS} round trips took {elapsed:?}"
    );
    drop(client);
    stop_server(&addr, handle);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle) = start_server("pipe");
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"ping\nquery s reachable App.used\nquery s reachable-count\nquery s epoch\n")
        .unwrap();
    let mut responses = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        responses.push(line.trim_end().to_string());
    }
    assert_eq!(
        responses,
        ["ok pong", "ok true epoch=1", "ok 2 epoch=1", "ok 1 epoch=1"]
    );
    drop((writer, reader));
    stop_server(&addr, handle);
}
