//! Minimal bytes stub for local typecheck/test runs: Vec-backed Bytes /
//! BytesMut with the API surface hermes-lb uses.
use std::ops::Deref;
use std::sync::Arc;

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes(Arc<Vec<u8>>);

impl Bytes {
    pub fn new() -> Self {
        Bytes(Arc::new(Vec::new()))
    }
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::new(data.to_vec()))
    }
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    pub fn slice(&self, r: std::ops::Range<usize>) -> Bytes {
        Bytes(Arc::new(self.0[r].to_vec()))
    }
}
impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}
impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::new(v))
    }
}
impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes(Arc::new(v.to_vec()))
    }
}
impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes(Arc::new(v.as_bytes().to_vec()))
    }
}
impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes(Arc::new(v.into_bytes()))
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }
    pub fn with_capacity(n: usize) -> Self {
        BytesMut(Vec::with_capacity(n))
    }
    pub fn len(&self) -> usize {
        self.0.len()
    }
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.0.split_off(at);
        BytesMut(std::mem::replace(&mut self.0, rest))
    }
    pub fn freeze(self) -> Bytes {
        Bytes(Arc::new(self.0))
    }
    pub fn clear(&mut self) {
        self.0.clear();
    }
    pub fn reserve(&mut self, n: usize) {
        self.0.reserve(n);
    }
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        BytesMut(self.0.split_off(at))
    }
}
impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}
impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}
impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut(v.to_vec())
    }
}
impl From<&str> for BytesMut {
    fn from(v: &str) -> Self {
        BytesMut(v.as_bytes().to_vec())
    }
}

pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);
    fn put_u8(&mut self, b: u8);
}
impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }
    fn put_u8(&mut self, b: u8) {
        self.0.push(b);
    }
}
