// A main under the root, so the rule runs even without perfbench/.
int main() {
    return 0;
}
