//! Minimal crossbeam stub for local typecheck/test runs: an MPMC channel
//! over Mutex<VecDeque> + Condvar with crossbeam's API surface.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    struct Shared<T> {
        q: Mutex<(VecDeque<T>, usize)>, // (queue, live sender count)
        cv: Condvar,
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.q.lock().unwrap().1 += 1;
            Sender(Arc::clone(&self.0))
        }
    }
    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.0.q.lock().unwrap().1 -= 1;
            self.0.cv.notify_all();
        }
    }
    impl<T> Sender<T> {
        pub fn send(&self, v: T) -> Result<(), SendError<T>> {
            self.0.q.lock().unwrap().0.push_back(v);
            self.0.cv.notify_one();
            Ok(())
        }
    }

    pub struct Receiver<T>(Arc<Shared<T>>);
    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }
    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut g = self.0.q.lock().unwrap();
            loop {
                if let Some(v) = g.0.pop_front() {
                    return Ok(v);
                }
                if g.1 == 0 {
                    return Err(RecvError);
                }
                g = self.0.cv.wait(g).unwrap();
            }
        }
        pub fn recv_timeout(&self, d: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + d;
            let mut g = self.0.q.lock().unwrap();
            loop {
                if let Some(v) = g.0.pop_front() {
                    return Ok(v);
                }
                if g.1 == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (ng, res) = self.0.cv.wait_timeout(g, deadline - now).unwrap();
                g = ng;
                if res.timed_out() && g.0.is_empty() {
                    return if g.1 == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut g = self.0.q.lock().unwrap();
            match g.0.pop_front() {
                Some(v) => Ok(v),
                None if g.1 == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
        pub fn is_empty(&self) -> bool {
            self.0.q.lock().unwrap().0.is_empty()
        }
        pub fn len(&self) -> usize {
            self.0.q.lock().unwrap().0.len()
        }
    }

    fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            q: Mutex::new((VecDeque::new(), 1)),
            cv: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel()
    }
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        // Capacity back-pressure is not load-bearing for local testing.
        channel()
    }
}

/// Scoped-thread stub mirroring `crossbeam::thread::scope` /
/// `Scope::spawn(|_| ...)` over std scoped threads (Rust >= 1.63).
pub mod thread {
    pub type Result<T> = std::thread::Result<T>;

    pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        pub fn join(self) -> Result<T> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.0;
            ScopedJoinHandle(inner.spawn(move || f(&Scope(inner))))
        }
    }

    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope(s))))
    }
}
