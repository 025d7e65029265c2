//! Load generators that drive a server (or a coordinator) over loopback
//! sockets: a closed loop, an open loop timed from the schedule, and a ping
//! probe. Every response is checked as it arrives.

use super::corpus::Op;
use super::stats::Samples;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One answered (or failed) operation of a window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index of the operation in the round.
    pub op: usize,
    pub latency_ms: f64,
    pub ok: bool,
}

/// Decides whether `line` answers `op`, sent with id `id`, correctly.
pub type Check<'a> = &'a (dyn Fn(&Op, u64, &str) -> bool + Sync);

/// One blocking connection: a request line out, a response line in.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    pub fn send(&mut self, request: &str) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(request.len() + 1);
        framed.extend_from_slice(request.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)
    }

    pub fn recv(&mut self) -> std::io::Result<&str> {
        recv_line(&mut self.reader, &mut self.line)?;
        Ok(&self.line)
    }

    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.send(request)?;
        self.recv()
    }
}

fn recv_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> std::io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed the connection",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

/// Request lines of a round; operation `i` always travels with id `i + 1`.
pub fn encode_round(round: &[Op]) -> Vec<String> {
    round
        .iter()
        .enumerate()
        .map(|(i, op)| op.line(i as u64 + 1))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Once this much time has passed (a request in flight is finished).
    After(Duration),
    /// After each connection has sent this many whole rounds.
    Rounds(usize),
}

/// `conns` connections each send the round over and over, the next request
/// only after the previous answer, until `stop`. Connection `c` starts
/// `c / conns` of the way into the round. A connection that breaks records
/// one failed operation and stops.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    round: &[Op],
    stop: Stop,
    check: Check<'_>,
) -> Vec<Sample> {
    let lines = encode_round(round);
    let t0 = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let lines = &lines;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut i = c * round.len() / conns;
                    let Ok(mut conn) = Conn::connect(addr) else {
                        samples.push(Sample {
                            op: i,
                            latency_ms: 0.0,
                            ok: false,
                        });
                        return samples;
                    };
                    let go_on = |sent: usize| match stop {
                        Stop::After(window) => t0.elapsed() < window,
                        Stop::Rounds(rounds) => sent < rounds * round.len(),
                    };
                    while go_on(samples.len()) {
                        let sent = Instant::now();
                        let answer = conn.call(&lines[i]);
                        let latency_ms = ms(sent.elapsed());
                        let broken = answer.is_err();
                        let ok = answer.is_ok_and(|line| check(&round[i], i as u64 + 1, line));
                        samples.push(Sample {
                            op: i,
                            latency_ms,
                            ok,
                        });
                        if broken {
                            break;
                        }
                        i = (i + 1) % round.len();
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    per_conn.into_iter().flatten().collect()
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Ask the kernel not to round this thread's sleeps up: the default timer
/// slack (50 µs) would otherwise sit in every open-loop latency, which runs
/// from the scheduled send time.
fn precise_sleep() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: `prctl(PR_SET_TIMERSLACK, ns)` takes integers only and
        // changes nothing but the calling thread's timer slack; a failure is
        // reported in the return value, which only costs precision.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
        }
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// Correct answers per second, from the first due time to the last
    /// answer.
    pub achieved_rps: f64,
    pub samples: Vec<Sample>,
    /// How late each request left, against its schedule (ms).
    pub lateness_ms: Samples,
}

/// `conns` connections send the round on a fixed schedule of `rate_rps`
/// requests per second in total for `window`, whether or not earlier
/// answers have arrived. Latency runs from the time a request was *due*,
/// so the wait a stall imposes on later requests is counted.
pub fn open_loop(
    addr: &str,
    conns: usize,
    round: &[Op],
    rate_rps: f64,
    window: Duration,
    check: Check<'_>,
) -> OpenReport {
    let lines = encode_round(round);
    let per_conn = ((rate_rps * window.as_secs_f64()) / conns as f64)
        .round()
        .max(1.0) as usize;
    let gap = Duration::from_secs_f64(1.0 / rate_rps);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut samples = Vec::new();
    let mut lateness = Vec::new();
    let mut last_answer = t0;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..conns {
            let lines = &lines;
            handles.push(scope.spawn(move || {
                let mut samples = Vec::with_capacity(per_conn);
                let mut lateness = Vec::with_capacity(per_conn);
                let mut last_answer = t0;
                let first = c * round.len() / conns;
                let failed = |k: usize| Sample {
                    op: (first + k) % round.len(),
                    latency_ms: 0.0,
                    ok: false,
                };
                let Ok(Conn {
                    mut reader,
                    mut writer,
                    mut line,
                }) = Conn::connect(addr)
                else {
                    samples.extend((0..per_conn).map(failed));
                    return (samples, lateness, last_answer);
                };
                let (due_tx, due_rx) = mpsc::channel::<(usize, Instant)>();
                std::thread::scope(|inner| {
                    let sender = inner.spawn(move || {
                        precise_sleep();
                        let mut late = Vec::with_capacity(per_conn);
                        for k in 0..per_conn {
                            let due = t0 + gap * (k * conns + c) as u32;
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            late.push(ms(Instant::now().saturating_duration_since(due)));
                            let i = (first + k) % lines.len();
                            let mut framed = Vec::with_capacity(lines[i].len() + 1);
                            framed.extend_from_slice(lines[i].as_bytes());
                            framed.push(b'\n');
                            if writer.write_all(&framed).is_err() || due_tx.send((i, due)).is_err()
                            {
                                break;
                            }
                        }
                        late
                    });
                    let mut answered = 0usize;
                    while let Ok((i, due)) = due_rx.recv() {
                        let got = recv_line(&mut reader, &mut line);
                        let now = Instant::now();
                        let ok = got.is_ok() && check(&round[i], i as u64 + 1, &line);
                        samples.push(Sample {
                            op: i,
                            latency_ms: ms(now.saturating_duration_since(due)),
                            ok,
                        });
                        answered += 1;
                        last_answer = now;
                        if got.is_err() {
                            break;
                        }
                    }
                    drop(due_rx);
                    lateness = sender.join().expect("open-loop sender panicked");
                    // Requests never sent or never answered are failures.
                    samples.extend((answered..per_conn).map(failed));
                });
                (samples, lateness, last_answer)
            }));
        }
        for h in handles {
            let (s, l, last) = h.join().expect("open-loop thread panicked");
            samples.extend(s);
            lateness.extend(l);
            last_answer = last_answer.max(last);
        }
    });
    let correct = samples.iter().filter(|s| s.ok).count() as f64;
    let span = last_answer.saturating_duration_since(t0).as_secs_f64();
    OpenReport {
        achieved_rps: if span > 0.0 { correct / span } else { 0.0 },
        samples,
        lateness_ms: Samples::new(lateness),
    }
}

/// Round-trip times of `count` wire `ping`s on one connection (µs): the
/// reactor, `koko-net` and the socket, with no engine work.
pub fn ping_rtt_us(addr: &str, count: usize) -> Samples {
    let Ok(mut conn) = Conn::connect(addr) else {
        return Samples::default();
    };
    let mut rtts = Vec::with_capacity(count);
    for _ in 0..count {
        let sent = Instant::now();
        if !conn
            .call("{\"id\":1,\"cmd\":\"ping\"}")
            .is_ok_and(|l| l.contains("\"pong\""))
        {
            break;
        }
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    Samples::new(rtts)
}
